//go:build amd64 && !noasm

package tensor

// useExactGates routes the float32 LSTM gate kernel (kLSTMGates) through
// the 4-lane AVX2 twin in gatesexact_amd64.s. The twin repeats math.Exp's
// FMA code path instruction for instruction and math.Tanh's unfused pure-Go
// expression, so it produces the scalar kernel's bits. math.Exp takes that path where
// the CPU has AVX and FMA, which cpuHasAVX2FMA implies; on any other host
// the scalar kernel runs.
var useExactGates = cpuHasAVX2FMA()

// vExpExact writes math.Exp(src[i]) to dst[i] for groups*4 float64s: the
// exp core on its own, which the tests hold to math.Exp.
//
//go:noescape
func vExpExact(dst, src *float64, groups int)

// vTanh64Exact writes math.Tanh(src[i]) to dst[i] for groups*4 float64s:
// the tanh core before the rounding to float32, which the tests hold to
// math.Tanh.
//
//go:noescape
func vTanh64Exact(dst, src *float64, groups int)

// vLSTMGatesExact runs lstmRow over columns [0, H&^3) of rows rows; every
// pointer is at the first row, and acts and tanhC may be nil.
//
//go:noescape
func vLSTMGatesExact(pre, bias, c, hNew, cNew, acts, tanhC *float32, rows, H int)
