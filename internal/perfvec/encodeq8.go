package perfvec

import (
	"repro/internal/nn"
)

// EncodeProgramsQ8: the int8 serving tier's batch encode. The same loop as
// EncodePrograms32 (encode.go) — identical claimed row ranges, window
// batches, and float64 per-program accumulation — with the forward pass
// routed through the quantized engine (nn.ForwardWindowsQ8): every large
// GEMM runs
// u8xi8 integer dot products over weights quantized once at first use, gate
// transcendentals run the fast float32 polynomial kernels, and everything
// else stays float32. Unlike the f32 tier this path is NOT bitwise equal to
// the float32 forward — dynamic activation quantization injects bounded
// noise — so its contract is the pinned epsilon of the int8 drift harness
// (drift_q8_test.go) rather than bit equality. It keeps the f32 tier's
// batch-invariance and determinism properties: quantization is a pure
// per-row function of the inputs, so a program's representation is
// independent of its batch neighbours and identical across runs.

// q8 returns the lazily built int8 image of the model. Safe for concurrent
// use once built; weights must be frozen (serving guarantees this).
func (f *Foundation) q8() (*nn.Q8Encoder, *nn.LinearQ8) {
	f.q8Once.Do(func() {
		f.q8Enc = nn.NewQ8Encoder(f.Encoder)
		f.q8Head = nn.NewLinearQ8(f.Head)
	})
	return f.q8Enc, f.q8Head
}

// EncodeProgramsQ8 is EncodePrograms32 on the quantized engine; see the file
// comment. dst[i] must have length RepDim; every ps[i].N must be >= 1.
//
//perfvec:hotpath
func (e *Encoder) EncodeProgramsQ8(ps []*ProgramData, dst [][]float32) {
	e.encode(ps, dst, nil, engineQ8)
}
