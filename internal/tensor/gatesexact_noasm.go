//go:build !amd64 || noasm

package tensor

// Non-amd64 builds, and amd64 under -tags noasm, run the exact LSTM gate
// kernel through its scalar code (gates.go), whose bits the vector twin
// reproduces. The stubs are never reached: every caller checks
// useExactGates first.
var useExactGates = false

func vExpExact(dst, src *float64, groups int) {
	panic("tensor: vector gate kernel called without hardware support")
}

func vTanh64Exact(dst, src *float64, groups int) {
	panic("tensor: vector gate kernel called without hardware support")
}

func vLSTMGatesExact(pre, bias, c, hNew, cNew, acts, tanhC *float32, rows, H int) {
	panic("tensor: vector gate kernel called without hardware support")
}
