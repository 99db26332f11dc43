// AVX2 kernels for the quantized GEMM engine (see gemmq8.go): the integer
// micro-kernel, then the quantize-pack and dequantize epilogues.
//
// gemmQ8Micro6x16 keeps a full 6x16 int32 accumulator tile register-resident
// across the entire quad loop: twelve YMM accumulators (six rows x two
// 8-lane vectors), two registers for the packed-B weight vectors of the
// current quad, one rotating broadcast register for the packed-A activation
// quads, and one multiply temporary. One quad step consumes four k-values:
// VPMADDUBSW multiplies unsigned activation bytes against signed weight
// bytes and sums adjacent pairs with int16 saturation, VPMADDWD against a
// ones vector widens and sums the pairs into int32 lanes, and VPADDD folds
// them into the accumulators. The packed quad layout (four consecutive
// k-values per column, gemmQuad in quant.go) is exactly what makes each
// int32 lane accumulate one output column. The portable kernel in gemmq8.go
// applies the identical expression per element — integer arithmetic, so the
// two paths agree bit-for-bit.

//go:build !noasm

#include "textflag.h"

// ones<> is the VPMADDWD multiplier that reduces i16 pairs by summation:
// sixteen int16 ones. Kept in memory — the sixteen YMM names are fully
// booked (12 accumulators + 2 B vectors + broadcast + temporary), and VEX
// memory operands tolerate any alignment.
DATA  ones<>+0(SB)/8, $0x0001000100010001
DATA  ones<>+8(SB)/8, $0x0001000100010001
DATA  ones<>+16(SB)/8, $0x0001000100010001
DATA  ones<>+24(SB)/8, $0x0001000100010001
GLOBL ones<>(SB), RODATA|NOPTR, $32

// func gemmQ8Micro6x16(c *int32, a *uint8, b *int8, kq, ldc int)
//
// C tile rows r at c + r*ldc*4, 16 int32s each (two YMM); packed A quad
// a[q*24 + r*4 + j] (unsigned); packed B quad b[q*64 + v*4 + j] (signed).
// Accumulators:
//
//	row 0: Y4  Y5     row 3: Y10 Y11
//	row 1: Y6  Y7     row 4: Y12 Y13
//	row 2: Y8  Y9     row 5: Y14 Y15
//
// Y0/Y1 hold the B vectors of the current quad, Y2 the broadcast activation
// quad of the current row, Y3 the madd temporary.
TEXT ·gemmQ8Micro6x16(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ kq+24(FP), CX
	MOVQ ldc+32(FP), DX
	SHLQ $2, DX                 // row stride in bytes

	// Row pointers R8..R13 = c + {0..5}*ldc.
	MOVQ DI, R8
	LEAQ (DI)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13

	// Load the 6x16 C tile into the accumulators.
	VMOVDQU (R8), Y4
	VMOVDQU 32(R8), Y5
	VMOVDQU (R9), Y6
	VMOVDQU 32(R9), Y7
	VMOVDQU (R10), Y8
	VMOVDQU 32(R10), Y9
	VMOVDQU (R11), Y10
	VMOVDQU 32(R11), Y11
	VMOVDQU (R12), Y12
	VMOVDQU 32(R12), Y13
	VMOVDQU (R13), Y14
	VMOVDQU 32(R13), Y15

	TESTQ CX, CX
	JZ    store

kloop:
	VMOVDQU      (BX), Y0       // b[q*64 .. +31]: columns 0-7, 4 k-bytes each
	VMOVDQU      32(BX), Y1     // b[q*64+32 .. +63]: columns 8-15
	VPBROADCASTD (SI), Y2       // a[q*24 + 0*4 ..]: row 0's quad
	VPMADDUBSW   Y0, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y4, Y4
	VPMADDUBSW   Y1, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y5, Y5
	VPBROADCASTD 4(SI), Y2      // row 1
	VPMADDUBSW   Y0, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y6, Y6
	VPMADDUBSW   Y1, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y7, Y7
	VPBROADCASTD 8(SI), Y2      // row 2
	VPMADDUBSW   Y0, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y8, Y8
	VPMADDUBSW   Y1, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y9, Y9
	VPBROADCASTD 12(SI), Y2     // row 3
	VPMADDUBSW   Y0, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y10, Y10
	VPMADDUBSW   Y1, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y11, Y11
	VPBROADCASTD 16(SI), Y2     // row 4
	VPMADDUBSW   Y0, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y12, Y12
	VPMADDUBSW   Y1, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y13, Y13
	VPBROADCASTD 20(SI), Y2     // row 5
	VPMADDUBSW   Y0, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y14, Y14
	VPMADDUBSW   Y1, Y2, Y3
	VPMADDWD     ones<>(SB), Y3, Y3
	VPADDD       Y3, Y15, Y15
	// Prefetch the panels ~16 quads ahead (b advances 64 B/quad, a 24).
	PREFETCHT0   1024(BX)
	PREFETCHT0   384(SI)
	ADDQ         $64, BX
	ADDQ         $24, SI
	DECQ         CX
	JNZ          kloop

store:
	VMOVDQU Y4, (R8)
	VMOVDQU Y5, 32(R8)
	VMOVDQU Y6, (R9)
	VMOVDQU Y7, 32(R9)
	VMOVDQU Y8, (R10)
	VMOVDQU Y9, 32(R10)
	VMOVDQU Y10, (R11)
	VMOVDQU Y11, 32(R11)
	VMOVDQU Y12, (R12)
	VMOVDQU Y13, 32(R12)
	VMOVDQU Y14, (R13)
	VMOVDQU Y15, 32(R13)
	VZEROUPPER
	RET

// The two per-call epilogues of MatMulQ8Into (kQuantPackA and kDequantQ8 in
// gemmq8.go) follow. Each lane runs the Go expression's operations in the
// Go order, one IEEE-rounded instruction per operation and never an FMA
// (Go does not contract a*b+c on amd64), so the lanes reproduce the
// portable loops bit for bit; TestQuantPackAAsmMatchesGeneric and
// TestDequantQ8AsmMatchesGeneric pin it.

// func minMaxF32x8(x *float32, blocks int) (lo, hi float32)
//
// Scans blocks*8 floats with eight lo/hi lanes seeded at +0. Intel's
// VMINPS src1, src2 returns src1 < src2 ? src1 : src2, so with the data as
// src1 and the running lane as src2 each lane computes the Go scan's
// `if v < lo { lo = v }`: a NaN or a -0 compares false and leaves the lane
// as it was (VMAXPS likewise for hi). Every lane therefore holds +0 or a
// value of the right sign that is neither NaN nor -0, so the order in which
// the lanes are folded cannot change the result.
TEXT ·minMaxF32x8(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   blocks+8(FP), CX
	VXORPS Y0, Y0, Y0           // lo lanes
	VXORPS Y1, Y1, Y1           // hi lanes
	TESTQ  CX, CX
	JZ     mmfold

mmloop:
	VMOVUPS (SI), Y2
	VMINPS  Y0, Y2, Y0          // Intel: VMINPS Y0, Y2(src1 = data), Y0
	VMAXPS  Y1, Y2, Y1
	ADDQ    $32, SI
	DECQ    CX
	JNZ     mmloop

mmfold:
	VEXTRACTF128 $1, Y0, X2
	VMINPS       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0x4E, X0, X2  // swap the 64-bit halves
	VMINPS       X2, X0, X0
	VPERMILPS    $0x4E, X1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0xB1, X0, X2  // swap neighbouring lanes
	VMINPS       X2, X0, X0
	VPERMILPS    $0xB1, X1, X3
	VMAXPS       X3, X1, X1
	VMOVSS       X0, lo+16(FP)
	VMOVSS       X1, hi+20(FP)
	VZEROUPPER
	RET

// func quantPackU8x8(dst *uint8, x *float32, blocks int, inv, zpf float32)
//
// Quantizes blocks*8 floats as quantizeU8 does — int32(x*inv + zpf) by
// truncation, clamped to [0, 127] — and writes each block's 8 codes as two
// 4-byte quads into one MR-row strip: block b's quads land at dst+48b and
// dst+48b+24 (the strip's quad stride is gemmMR*gemmQuad = 24 bytes).
// VCVTTPS2DQ, like Go's CVTTSS2SL, turns NaN and out-of-range values into
// 0x80000000, which the clamp maps to 0. After the clamp the two packs
// cannot saturate: VPACKSSDW leaves codes d0-d3 in the low 64 bits of the
// low 128-bit lane and d4-d7 in the high lane, and VPACKUSWB narrows them to
// bytes in the lanes' low dwords.
TEXT ·quantPackU8x8(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         blocks+16(FP), CX
	VBROADCASTSS inv+24(FP), Y14
	VBROADCASTSS zpf+28(FP), Y15
	VPXOR        Y12, Y12, Y12  // 0
	MOVL         $127, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13       // 127
	TESTQ        CX, CX
	JZ           qpdone

qploop:
	VMOVUPS      (SI), Y0
	VMULPS       Y14, Y0, Y0    // x*inv
	VADDPS       Y15, Y0, Y0    // + zpf
	VCVTTPS2DQ   Y0, Y0
	VPMAXSD      Y12, Y0, Y0
	VPMINSD      Y13, Y0, Y0
	VPACKSSDW    Y0, Y0, Y0
	VPACKUSWB    Y0, Y0, Y0
	VMOVD        X0, (DI)
	VEXTRACTI128 $1, Y0, X1
	VMOVD        X1, 24(DI)
	ADDQ         $32, SI
	ADDQ         $48, DI
	DECQ         CX
	JNZ          qploop

qpdone:
	VZEROUPPER
	RET

// func dequantQ8Rows(dst *float32, acc, colSum *int32, wScale, aScale *float32, aZp *int32, bias *float32, rows, n, flags int)
//
// For each of rows rows (dst and acc advance n elements per row, aScale and
// aZp one) and each column j, computes kDequantQ8's
//
//	t := float32(acc[j] - zp*colSum[j])     VPMULLD, VPSUBD (wrapping, as Go's int32), VCVTDQ2PS
//	v := (wScale[j]*ai) * t                 VMULPS, VMULPS
//	v = v + bias[j]                         VADDPS, when bias is non-nil
//	dst[j] = dst[j] + v                     VADDPS, when flags has dequantAdd; else dst[j] = v
//
// eight columns at a time, then one column at a time for the n%8 tail with
// the same operations on the low lane. The operand order of each multiply
// and add is the one the Go compiler picks for the portable loops, which
// only matters for which NaN's payload survives when both operands are NaN.
TEXT ·dequantQ8Rows(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ colSum+16(FP), BX
	MOVQ wScale+24(FP), DX
	MOVQ aScale+32(FP), R9
	MOVQ aZp+40(FP), R10
	MOVQ bias+48(FP), R8
	MOVQ rows+56(FP), CX
	MOVQ n+64(FP), R11
	MOVQ flags+72(FP), R12
	MOVQ R11, R13
	ANDQ $-8, R13               // n8 = columns covered by whole vectors
	TESTQ CX, CX
	JZ    dqdone

dqrow:
	VBROADCASTSS (R9), Y14      // ai
	VPBROADCASTD (R10), Y15     // zp
	XORQ         AX, AX
	CMPQ         AX, R13
	JGE          dqtail

dqvec:
	VMOVDQU   (SI)(AX*4), Y0
	VPMULLD   (BX)(AX*4), Y15, Y1
	VPSUBD    Y1, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMOVUPS   (DX)(AX*4), Y2
	VMULPS    Y14, Y2, Y2
	VMULPS    Y0, Y2, Y2
	TESTQ     R8, R8
	JZ        dqvnobias
	VADDPS    (R8)(AX*4), Y2, Y2
	TESTQ     $1, R12
	JZ        dqvstore
	VMOVUPS   (DI)(AX*4), Y3
	VADDPS    Y2, Y3, Y2        // dst + (v + bias)
	JMP       dqvstore

dqvnobias:
	TESTQ  $1, R12
	JZ     dqvstore
	VADDPS (DI)(AX*4), Y2, Y2   // v + dst

dqvstore:
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JLT     dqvec

dqtail:
	CMPQ AX, R11
	JGE  dqnext
	VMOVD     (SI)(AX*4), X0
	VMOVD     (BX)(AX*4), X1
	VPMULLD   X1, X15, X1
	VPSUBD    X1, X0, X0
	VCVTDQ2PS X0, X0
	VMOVSS    (DX)(AX*4), X2
	VMULSS    X14, X2, X2
	VMULSS    X0, X2, X2
	TESTQ     R8, R8
	JZ        dqsnobias
	VADDSS    (R8)(AX*4), X2, X2
	TESTQ     $1, R12
	JZ        dqsstore
	VMOVSS    (DI)(AX*4), X3
	VADDSS    X2, X3, X2
	JMP       dqsstore

dqsnobias:
	TESTQ  $1, R12
	JZ     dqsstore
	VADDSS (DI)(AX*4), X2, X2

dqsstore:
	VMOVSS X2, (DI)(AX*4)
	INCQ   AX
	JMP    dqtail

dqnext:
	LEAQ (DI)(R11*4), DI
	LEAQ (SI)(R11*4), SI
	ADDQ $4, R9
	ADDQ $4, R10
	DECQ CX
	JNZ  dqrow

dqdone:
	VZEROUPPER
	RET
