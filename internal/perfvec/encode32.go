package perfvec

import (
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Precision variants of the coalesced batch encode. EncodePrograms32 is the
// serving fast path: the batch encode loop (encode.go) on the forward-only
// float32 engine (nn.ForwardSeq32 on the encoder's Slab32). That engine is
// bitwise identical to the training forward on an inference tape, so
// EncodePrograms32's output is bitwise identical to ProgramRep for every
// program in the batch, and it is row-wise batch-invariant (both pinned in
// encode32_test.go).
//
// EncodePrograms64 is the float64 oracle form: the widened model
// (nn.Oracle64) replays the same graph with every accumulation and
// transcendental in float64. It exists for the epsilon drift harness and
// the -precision=f64 audit serving mode, keeps its own loop so the
// reference never shares code with what it checks, allocates freely, and
// is not a hot path.

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
func (f *Foundation) oracle64() (*nn.Oracle64, *nn.Linear64) {
	f.oracleOnce.Do(func() {
		f.oracleEnc = nn.NewOracle64(f.Encoder)
		f.oracleHead = nn.NewLinear64(f.Head)
	})
	return f.oracleEnc, f.oracleHead
}

// EncodePrograms64 runs the coalesced batch encode through the float64
// oracle: same chunking and accumulation structure as EncodePrograms32,
// with features widened exactly and the whole forward graph computed in
// float64. dst[i] must have length RepDim; every ps[i].N must be >= 1.
func (f *Foundation) EncodePrograms64(ps []*ProgramData, dst [][]float64) {
	enc, head := f.oracle64()
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
	xs := make([]tensor.Tensor64, window)
	for base := 0; base < total; base += streamChunk {
		bsz := min(streamChunk, total-base)
		for t := range xs {
			xs[t] = tensor.NewTensor64(bsz, f.Cfg.FeatDim)
		}
		for row := 0; row < bsz; {
			p := ps[fpi]
			k := min(bsz-row, p.N-foff)
			fillWindowRows64(xs, p, foff, foff+k, window, row)
			row += k
			foff += k
			if foff == p.N {
				fpi++
				foff = 0
			}
		}
		reps := head.Forward(enc.ForwardSeq(xs))
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

// fillWindowRows64 widens the feature rows exactly into the float64 window
// tensors, with the same zero-padding-by-skip as fillWindowRows.
func fillWindowRows64(xs []tensor.Tensor64, p *ProgramData, from, to, window, rowOff int) {
	for b := from; b < to; b++ {
		row := rowOff + b - from
		for t := 0; t < window; t++ {
			src := b - (window - 1) + t
			if src < 0 {
				continue
			}
			dstRow := xs[t].Row(row)
			srcRow := p.Features[src*p.FeatDim : (src+1)*p.FeatDim]
			for j, v := range srcRow {
				dstRow[j] = float64(v)
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
