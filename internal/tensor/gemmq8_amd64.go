//go:build amd64 && !noasm

package tensor

// useQ8 routes the quantized engine through the AVX2 kernels in
// gemmq8_amd64.s: the VPMADDUBSW/VPMADDWD micro-kernel (gemmQ8Micro in
// gemmq8.go) and the two per-call epilogues, quantize-pack (kQuantPackA)
// and dequantize (kDequantQ8). They use only AVX2 instructions — every CPU
// that passes the f32 path's AVX2+FMA probe has them — so all share one
// capability gate. The portable Go code replicates each kernel exactly (the
// i16 saturation, the unfused float operation order), so the paths agree
// bit-for-bit.
var useQ8 = cpuHasAVX2FMA()

// gemmQ8Micro6x16 accumulates one 6x16 int32 tile held register-resident
// across the quad loop: twelve YMM accumulators are loaded from c (row
// stride ldc int32s), receive kq VPMADDUBSW/VPMADDWD steps from the packed
// operands — a supplies 6 four-byte activation quads per step (layout
// a[q*24 + r*4 + j], unsigned), b sixteen four-byte weight groups (layout
// b[q*64 + v*4 + j], signed) — and are stored back once. kq must be >= 0;
// c, a, and b must cover the full tile, 24*kq, and 64*kq bytes respectively.
//
//go:noescape
func gemmQ8Micro6x16(c *int32, a *uint8, b *int8, kq, ldc int)

// minMaxF32x8 returns the min and max of {0} and the blocks*8 floats at x,
// skipping NaN and keeping +0 over -0 exactly as quantizeRowU8's scan does.
// blocks must be >= 0.
//
//go:noescape
func minMaxF32x8(x *float32, blocks int) (lo, hi float32)

// quantPackU8x8 writes quantizeU8(x[l], inv, zpf) for l < blocks*8 into the
// MR-row strip at dst: l lands at dst[(l/4)*gemmMR*gemmQuad + l%4].
//
//go:noescape
func quantPackU8x8(dst *uint8, x *float32, blocks int, inv, zpf float32)

// dequantQ8Rows runs kDequantQ8's per-element expression over rows rows of
// n columns starting at dst and acc; aScale and aZp point at the first
// row's entries, bias is nil for none, and flags carries the dequantAdd bit.
//
//go:noescape
func dequantQ8Rows(dst *float32, acc, colSum *int32, wScale, aScale *float32, aZp *int32, bias *float32, rows, n, flags int)
