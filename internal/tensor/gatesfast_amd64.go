//go:build amd64 && !noasm

package tensor

// useFastGates routes the fast gate slice helpers and the LSTM cell in
// gates_fast.go through the AVX2 vector kernels in gatesfast_amd64.s. The kernels use only AVX2
// instructions (VROUNDPS is SSE4.1-era, subsumed by AVX), so they share the
// GEMM paths' capability gate. The vector lanes compute bit-identically to
// the scalar fallback — unfused mul/add in the scalar expression order — so
// dispatch (and the scalar tail past the last full 8-lane block) never
// affects values.
var useFastGates = cpuHasAVX2FMA()

// vExpF32 applies fastExp32 in place to blocks*8 float32s at d.
//
//go:noescape
func vExpF32(d *float32, blocks int)

// vSigmoidF32 applies fastSigmoid32 in place to blocks*8 float32s at d.
//
//go:noescape
func vSigmoidF32(d *float32, blocks int)

// vTanhF32 applies fastTanh32 in place to blocks*8 float32s at d.
//
//go:noescape
func vTanhF32(d *float32, blocks int)

// vLSTMGatesF32 runs lstmGatesFastGo over rows rows of H = blocks*8 hidden
// units in one fused pass; pre, c, cNew and hNew point at the first row.
//
//go:noescape
func vLSTMGatesF32(pre, bias, c, cNew, hNew *float32, rows, blocks int)
