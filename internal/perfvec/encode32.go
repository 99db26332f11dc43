package perfvec

import (
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Precision variants of the coalesced batch encode. EncodePrograms32 is the
// serving fast path: the batch encode loop (encode.go) on the forward-only
// float32 engine (nn.ForwardWindows32 on the encoder's Slab32). That engine is
// bitwise identical to the training (tape) forward, so
// EncodePrograms32's output is bitwise identical to ProgramRep for every
// program in the batch, and it is row-wise batch-invariant (both pinned in
// encode32_test.go).
//
// EncodePrograms64 is the float64 oracle form: the same batch encode loop
// with the widened model (nn.Oracle64) running the inference graph on the
// float64 backend, every accumulation and transcendental in float64. It is
// not a serving tier: it is the reference the epsilon drift harnesses and
// the tier error ledger (internal/experiments) hold the f32 and int8 tiers
// against. Its forward allocates per row range and is not a hot path.

// EncodePrograms32 encodes ps in coalesced passes on the forward-only
// float32 engine and writes each program's representation into the
// caller-owned dst[i] (length RepDim); see the file comment. Each dst[i] is
// bitwise identical to ProgramRep(ps[i]). Every ps[i].N must be >= 1.
//
//perfvec:hotpath
func (e *Encoder) EncodePrograms32(ps []*ProgramData, dst [][]float32) {
	e.encode(ps, dst, nil, engineF32)
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

// EncodePrograms64 runs the coalesced batch encode (encode.go) through the
// float64 oracle on a pooled encoder: the same claimed row ranges and
// in-order accumulation as EncodePrograms32, with each range's window batch
// widened exactly and the whole forward graph computed in float64. dst[i]
// must have length RepDim; every ps[i].N must be >= 1.
func (f *Foundation) EncodePrograms64(ps []*ProgramData, dst [][]float64) {
	e := f.AcquireEncoder()
	e.encode(ps, nil, nil, engineOracle)
	d := f.Cfg.RepDim
	for i := range ps {
		copy(dst[i], e.acc[i*d:(i+1)*d])
	}
	f.ReleaseEncoder(e)
}

// forward64 is the oracle's forward pass over the window batch xs: it
// widens its rows (exactly) to float64 and runs encoder and head through
// oracle64. It allocates per call — it is the drift reference, not a hot
// path.
func (e *Encoder) forward64(xs nn.Windows[tensor.Tensor32]) tensor.Tensor64 {
	o := e.f.oracle64()
	rows := tensor.NewTensor64(xs.Rows.R, xs.Rows.C)
	for i, v := range xs.Rows.Data {
		rows.Data[i] = float64(v)
	}
	return o.Linear(e.f.Head, o.ForwardWindows(nn.Windows[tensor.Tensor64]{Rows: rows, Start: xs.Start, Len: xs.Len}))
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
