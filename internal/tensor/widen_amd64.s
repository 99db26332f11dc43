// AVX2 twin of WidenDiv2's Go loop (widen.go): dst[i] = float64(src[i]) /
// d0 / d1. VCVTPS2PD widens exactly (a signalling NaN is quieted, as
// CVTSS2SD quiets it), and each VDIVPD is the correctly rounded division
// DIVSD performs, with the running value as the first source so that two
// NaNs resolve to its payload, as they do in the scalar code.
// TestWidenDiv2MatchesGo (widen_test.go) pins the kernel to the Go
// expression bit for bit.

//go:build !noasm

#include "textflag.h"

// func vWidenDiv2(dst *float64, src *float32, blocks int, d0, d1 float64)
TEXT ·vWidenDiv2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         blocks+16(FP), CX
	VBROADCASTSD d0+24(FP), Y14
	VBROADCASTSD d1+32(FP), Y15

widenloop:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VDIVPD    Y14, Y0, Y0
	VDIVPD    Y14, Y1, Y1
	VDIVPD    Y15, Y0, Y0
	VDIVPD    Y15, Y1, Y1
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       widenloop
	VZEROUPPER
	RET
