package perfvec

import (
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Precision variants of the coalesced batch encode. EncodePrograms32 is the
// serving fast path: the batch encode loop (encode.go) on the forward-only
// float32 engine (nn.ForwardSeq32 on the encoder's Slab32). That engine is
// bitwise identical to the training (tape) forward, so
// EncodePrograms32's output is bitwise identical to ProgramRep for every
// program in the batch, and it is row-wise batch-invariant (both pinned in
// encode32_test.go).
//
// EncodePrograms64 is the float64 oracle form: the widened model
// (nn.Oracle64) runs the same inference graph on the float64 backend, with
// every accumulation and transcendental in float64. It exists for the
// epsilon drift harnesses and the -precision=f64 audit serving mode,
// allocates freely, and is not a hot path.

// EncodePrograms32 encodes ps in coalesced passes on the forward-only
// float32 engine and writes each program's representation into the
// caller-owned dst[i] (length RepDim); see the file comment. Each dst[i] is
// bitwise identical to ProgramRep(ps[i]). Every ps[i].N must be >= 1.
//
//perfvec:hotpath
func (e *Encoder) EncodePrograms32(ps []*ProgramData, dst [][]float32) {
	e.encode(ps, dst, false)
}

// oracle64 returns the lazily built float64 image of the model. Safe for
// concurrent use once built; the model's weights must be frozen (serving
// guarantees this — training and serving never share a Foundation).
func (f *Foundation) oracle64() *nn.Oracle64 {
	f.oracleOnce.Do(func() {
		f.oracle = nn.NewOracle64(f.Encoder, f.Head)
	})
	return f.oracle
}

// EncodePrograms64 runs the coalesced batch encode through the float64
// oracle: same chunking and accumulation structure as EncodePrograms32,
// with features widened exactly and the whole forward graph computed in
// float64. dst[i] must have length RepDim; every ps[i].N must be >= 1.
func (f *Foundation) EncodePrograms64(ps []*ProgramData, dst [][]float64) {
	o := f.oracle64()
	window := f.Cfg.Window
	total := 0
	for _, p := range ps {
		if p.N < 1 {
			panic("perfvec: EncodePrograms64 requires non-empty programs")
		}
		total += p.N
	}
	for i := range ps {
		clear(dst[i])
	}

	pi, off := 0, 0
	fpi, foff := 0, 0
	var slab tensor.Slab32 // float32 windows, filled as encode fills them
	xs := make([]tensor.Tensor64, window)
	for base := 0; base < total; base += streamChunk {
		bsz := min(streamChunk, total-base)
		slab.Reset()
		xs32 := slab.Mats(window)
		for t := range xs32 {
			xs32[t] = slab.Mat(bsz, f.Cfg.FeatDim)
		}
		for row := 0; row < bsz; {
			p := ps[fpi]
			k := min(bsz-row, p.N-foff)
			fillWindowRows(xs32, p, foff, foff+k, row)
			row += k
			foff += k
			if foff == p.N {
				fpi++
				foff = 0
			}
		}
		for t, x := range xs32 { // widening is exact
			xs[t] = tensor.NewTensor64(bsz, f.Cfg.FeatDim)
			for i, v := range x.Data {
				xs[t].Data[i] = float64(v)
			}
		}
		reps := o.Linear(f.Head, o.ForwardSeq(xs))
		for row := 0; row < bsz; {
			p := ps[pi]
			k := min(bsz-row, p.N-off)
			a := dst[pi]
			for i := 0; i < k; i++ {
				r := reps.Row(row + i)
				for j, v := range r {
					a[j] += v
				}
			}
			row += k
			off += k
			if off == p.N {
				pi++
				off = 0
			}
		}
	}
}

// PredictTotalNs64 is the float64-oracle form of PredictTotalNs: the same
// dot / target-scale / tick conversion with the program representation kept
// in float64. The drift harness compares predictions made from float32 reps
// against this.
func (f *Foundation) PredictTotalNs64(progRep []float64, uarchRep []float32) float64 {
	if len(progRep) != len(uarchRep) {
		panic("perfvec: rep dims differ")
	}
	var dot float64
	for i, v := range progRep {
		dot += v * float64(uarchRep[i])
	}
	return dot / float64(f.Cfg.TargetScale) / sim.TickPerNs
}
