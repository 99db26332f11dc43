//go:build !amd64 || noasm

package tensor

// Non-amd64 builds — and amd64 under -tags noasm — run the fast gate slice
// helpers entirely through the scalar fastExp32 family, which the vector
// kernels reproduce bit-for-bit, so gate values are identical across builds.
// The stubs are never reached (the helpers check useFastGates first); the
// var, not const, keeps both dispatch paths testable uniformly.
var useFastGates = false

func vExpF32(d *float32, blocks int) {
	panic("tensor: vector gate kernel called without hardware support")
}

func vSigmoidF32(d *float32, blocks int) {
	panic("tensor: vector gate kernel called without hardware support")
}

func vTanhF32(d *float32, blocks int) {
	panic("tensor: vector gate kernel called without hardware support")
}

func vLSTMGatesF32(pre, bias, c, cNew, hNew *float32, rows, blocks int) {
	panic("tensor: vector gate kernel called without hardware support")
}
