//go:build !amd64 || noasm

package tensor

// Non-amd64 builds — and amd64 builds under -tags noasm, which CI uses to
// run the int8 drift harness on the portable kernels — run the quantized
// engine with gemmQ8MicroGeneric and the Go epilogue loops, bit-identical to
// the assembly path (integer arithmetic with pinned saturation semantics
// leaves no rounding freedom, and the vector epilogues repeat the Go float
// operations in order). useQ8 is a var, not a const, so tests can exercise
// both dispatch paths uniformly.
var useQ8 = false

func gemmQ8Micro6x16(c *int32, a *uint8, b *int8, kq, ldc int) {
	panic("tensor: quantized SIMD micro-kernel called without hardware support")
}

func minMaxF32x8(x *float32, blocks int) (lo, hi float32) {
	panic("tensor: quantized SIMD epilogue called without hardware support")
}

func quantPackU8x8(dst *uint8, x *float32, blocks int, inv, zpf float32) {
	panic("tensor: quantized SIMD epilogue called without hardware support")
}

func dequantQ8Rows(dst *float32, acc, colSum *int32, wScale, aScale *float32, aZp *int32, bias *float32, rows, n, flags int) {
	panic("tensor: quantized SIMD epilogue called without hardware support")
}
