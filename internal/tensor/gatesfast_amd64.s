// AVX2 vector kernels for the fast gate nonlinearities (see gates_fast.go).
//
// vExpF32 / vSigmoidF32 / vTanhF32 apply fastExp32 / fastSigmoid32 /
// fastTanh32 in place to 8-float blocks. Every arithmetic step is an unfused
// VMULPS/VADDPS/VSUBPS pair in the exact order of the scalar Go expressions
// — Go never contracts a*b+c into an FMA on amd64, and VDIVPS, VROUNDPS
// (nearest, ties to even) and VCVTPS2DQ round identically to their scalar
// counterparts — so the vector lanes produce bit-identical results to the
// scalar fallback, and the slice helpers' scalar tails cannot introduce
// position-dependent values. TestFastGateVectorMatchesScalar pins the
// equality exactly.
//
// The one structural difference from the scalar code is the deep-negative
// branch: fastExp32 returns an early 0 for x < -87.3, which a branch-free
// vector lane cannot. EXPCORE instead records the !(x < -87.3) mask up front
// (VCMPPS predicate 5, NLT unordered, so a NaN lane is kept), clamps x into
// the safe exponent range, and zeroes the failing lanes with VANDPS at the
// end — same values, no divergence. NaN propagates as in the scalar code:
// the clamp puts the constant in the first source of VMINPS/VMAXPS, whose
// NaN rule returns the second (the data), and every later step carries the
// lane's NaN through (VCVTPS2DQ makes 2^n = 1, as Go's int32 conversion does).

//go:build !noasm

#include "textflag.h"

// 8-lane broadcast constants for the exp core. Bit patterns are the exact
// float32 constants in gates_fast.go (printed via math.Float32bits).
DATA  expHi<>+0(SB)/8, $0x42AE999A42AE999A   // 87.3
DATA  expHi<>+8(SB)/8, $0x42AE999A42AE999A
DATA  expHi<>+16(SB)/8, $0x42AE999A42AE999A
DATA  expHi<>+24(SB)/8, $0x42AE999A42AE999A
GLOBL expHi<>(SB), RODATA|NOPTR, $32

DATA  expLo<>+0(SB)/8, $0xC2AE999AC2AE999A   // -87.3
DATA  expLo<>+8(SB)/8, $0xC2AE999AC2AE999A
DATA  expLo<>+16(SB)/8, $0xC2AE999AC2AE999A
DATA  expLo<>+24(SB)/8, $0xC2AE999AC2AE999A
GLOBL expLo<>(SB), RODATA|NOPTR, $32

DATA  expLog2e<>+0(SB)/8, $0x3FB8AA3B3FB8AA3B   // fastLog2E
DATA  expLog2e<>+8(SB)/8, $0x3FB8AA3B3FB8AA3B
DATA  expLog2e<>+16(SB)/8, $0x3FB8AA3B3FB8AA3B
DATA  expLog2e<>+24(SB)/8, $0x3FB8AA3B3FB8AA3B
GLOBL expLog2e<>(SB), RODATA|NOPTR, $32

DATA  expLn2Hi<>+0(SB)/8, $0x3F3180003F318000   // fastLn2Hi
DATA  expLn2Hi<>+8(SB)/8, $0x3F3180003F318000
DATA  expLn2Hi<>+16(SB)/8, $0x3F3180003F318000
DATA  expLn2Hi<>+24(SB)/8, $0x3F3180003F318000
GLOBL expLn2Hi<>(SB), RODATA|NOPTR, $32

DATA  expLn2Lo<>+0(SB)/8, $0xB95E8083B95E8083   // fastLn2Lo
DATA  expLn2Lo<>+8(SB)/8, $0xB95E8083B95E8083
DATA  expLn2Lo<>+16(SB)/8, $0xB95E8083B95E8083
DATA  expLn2Lo<>+24(SB)/8, $0xB95E8083B95E8083
GLOBL expLn2Lo<>(SB), RODATA|NOPTR, $32

DATA  expC6<>+0(SB)/8, $0x3AB60B613AB60B61   // 1/720
DATA  expC6<>+8(SB)/8, $0x3AB60B613AB60B61
DATA  expC6<>+16(SB)/8, $0x3AB60B613AB60B61
DATA  expC6<>+24(SB)/8, $0x3AB60B613AB60B61
GLOBL expC6<>(SB), RODATA|NOPTR, $32

DATA  expC5<>+0(SB)/8, $0x3C0888893C088889   // 1/120
DATA  expC5<>+8(SB)/8, $0x3C0888893C088889
DATA  expC5<>+16(SB)/8, $0x3C0888893C088889
DATA  expC5<>+24(SB)/8, $0x3C0888893C088889
GLOBL expC5<>(SB), RODATA|NOPTR, $32

DATA  expC4<>+0(SB)/8, $0x3D2AAAAB3D2AAAAB   // 1/24
DATA  expC4<>+8(SB)/8, $0x3D2AAAAB3D2AAAAB
DATA  expC4<>+16(SB)/8, $0x3D2AAAAB3D2AAAAB
DATA  expC4<>+24(SB)/8, $0x3D2AAAAB3D2AAAAB
GLOBL expC4<>(SB), RODATA|NOPTR, $32

DATA  expC3<>+0(SB)/8, $0x3E2AAAAB3E2AAAAB   // 1/6
DATA  expC3<>+8(SB)/8, $0x3E2AAAAB3E2AAAAB
DATA  expC3<>+16(SB)/8, $0x3E2AAAAB3E2AAAAB
DATA  expC3<>+24(SB)/8, $0x3E2AAAAB3E2AAAAB
GLOBL expC3<>(SB), RODATA|NOPTR, $32

DATA  expHalf<>+0(SB)/8, $0x3F0000003F000000   // 1/2
DATA  expHalf<>+8(SB)/8, $0x3F0000003F000000
DATA  expHalf<>+16(SB)/8, $0x3F0000003F000000
DATA  expHalf<>+24(SB)/8, $0x3F0000003F000000
GLOBL expHalf<>(SB), RODATA|NOPTR, $32

DATA  expOne<>+0(SB)/8, $0x3F8000003F800000   // 1
DATA  expOne<>+8(SB)/8, $0x3F8000003F800000
DATA  expOne<>+16(SB)/8, $0x3F8000003F800000
DATA  expOne<>+24(SB)/8, $0x3F8000003F800000
GLOBL expOne<>(SB), RODATA|NOPTR, $32

DATA  expBias<>+0(SB)/8, $0x0000007F0000007F   // int32 127
DATA  expBias<>+8(SB)/8, $0x0000007F0000007F
DATA  expBias<>+16(SB)/8, $0x0000007F0000007F
DATA  expBias<>+24(SB)/8, $0x0000007F0000007F
GLOBL expBias<>(SB), RODATA|NOPTR, $32

DATA  signMask<>+0(SB)/8, $0x8000000080000000
DATA  signMask<>+8(SB)/8, $0x8000000080000000
DATA  signMask<>+16(SB)/8, $0x8000000080000000
DATA  signMask<>+24(SB)/8, $0x8000000080000000
GLOBL signMask<>(SB), RODATA|NOPTR, $32

// EXPCORE: Y0 = fastExp32(Y0), clobbering Y1 (n), Y2 (Horner p), Y3 (the
// keep mask) and Y4 (multiply temporary); it reads the clamp bounds from
// Y12 (87.3) and Y13 (-87.3), which LOADBOUNDS sets once per call.
// Instruction-for-expression twin of the scalar fastExp32: clamp,
// n = round(x*log2e), Cody-Waite reduction, degree-6 Horner in unfused
// mul/add pairs, exponent-bit assembly, and the deep-negative mask standing
// in for the scalar early return.
#define EXPCORE \
	VCMPPS   $5, Y13, Y0, Y3          \ // lanes with !(x < -87.3) survive, NaN too
	VMINPS   Y0, Y12, Y0              \ // 87.3 < x ? 87.3 : x (NaN x passes)
	VMAXPS   Y0, Y13, Y0              \ // -87.3 > x ? -87.3 : x
	VMULPS   expLog2e<>(SB), Y0, Y1   \
	VROUNDPS $0, Y1, Y1               \ // n = nearest int, ties to even
	VMULPS   expLn2Hi<>(SB), Y1, Y4   \
	VSUBPS   Y4, Y0, Y0               \ // x - n*ln2hi
	VMULPS   expLn2Lo<>(SB), Y1, Y4   \
	VSUBPS   Y4, Y0, Y0               \ // f
	VMOVUPS  expC6<>(SB), Y2          \
	VMULPS   Y0, Y2, Y2               \
	VADDPS   expC5<>(SB), Y2, Y2      \
	VMULPS   Y0, Y2, Y2               \
	VADDPS   expC4<>(SB), Y2, Y2      \
	VMULPS   Y0, Y2, Y2               \
	VADDPS   expC3<>(SB), Y2, Y2      \
	VMULPS   Y0, Y2, Y2               \
	VADDPS   expHalf<>(SB), Y2, Y2    \
	VMULPS   Y0, Y2, Y2               \
	VADDPS   expOne<>(SB), Y2, Y2     \
	VMULPS   Y0, Y2, Y2               \
	VADDPS   expOne<>(SB), Y2, Y2     \ // p = e^f
	VCVTPS2DQ Y1, Y1                  \
	VPADDD   expBias<>(SB), Y1, Y1    \
	VPSLLD   $23, Y1, Y1              \ // 2^n in the exponent bits
	VMULPS   Y1, Y2, Y0               \
	VANDPS   Y3, Y0, Y0

// LOADBOUNDS: Y12 = 87.3 and Y13 = -87.3 in every lane, for EXPCORE.
#define LOADBOUNDS \
	VMOVUPS expHi<>(SB), Y12 \
	VMOVUPS expLo<>(SB), Y13

// func vExpF32(d *float32, blocks int)
TEXT ·vExpF32(SB), NOSPLIT, $0-16
	MOVQ d+0(FP), SI
	MOVQ blocks+8(FP), CX
	LOADBOUNDS

exploop:
	VMOVUPS (SI), Y0
	EXPCORE
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     exploop
	VZEROUPPER
	RET

// SIGMOID: Y0 = 1 / (1 + fastExp32(-Y0)), clobbering Y1-Y5: negate by
// sign-bit XOR (exact, as in scalar Go), exp core, then the IEEE-rounded add
// and divide.
#define SIGMOID \
	VXORPS  signMask<>(SB), Y0, Y0 \
	EXPCORE                        \
	VADDPS  expOne<>(SB), Y0, Y0   \
	VMOVUPS expOne<>(SB), Y5       \
	VDIVPS  Y0, Y5, Y0

// TANH: Y0 = (e - 1) / (e + 1) with e = fastExp32(2*Y0), clobbering Y1-Y5;
// doubling by VADDPS is exact, matching the scalar 2*x.
#define TANH \
	VADDPS  Y0, Y0, Y0           \
	EXPCORE                      \
	VMOVUPS expOne<>(SB), Y5     \
	VSUBPS  Y5, Y0, Y4           \ // e - 1
	VADDPS  Y5, Y0, Y0           \ // e + 1
	VDIVPS  Y0, Y4, Y0

// func vSigmoidF32(d *float32, blocks int)
TEXT ·vSigmoidF32(SB), NOSPLIT, $0-16
	MOVQ d+0(FP), SI
	MOVQ blocks+8(FP), CX
	LOADBOUNDS

sigloop:
	VMOVUPS (SI), Y0
	SIGMOID
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     sigloop
	VZEROUPPER
	RET

// func vTanhF32(d *float32, blocks int)
TEXT ·vTanhF32(SB), NOSPLIT, $0-16
	MOVQ d+0(FP), SI
	MOVQ blocks+8(FP), CX
	LOADBOUNDS

tanhloop:
	VMOVUPS (SI), Y0
	TANH
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     tanhloop
	VZEROUPPER
	RET

// func vLSTMGatesF32(pre, bias, c, cNew, hNew *float32, rows, blocks int)
//
// One fused pass of lstmGatesFastGo over rows rows of H = blocks*8 hidden
// units: per 8-lane column block, the four bias-added gates (i, f, g, o at
// byte offsets 0, H*4, 2*H*4, 3*H*4 of the pre row) are activated and
// written back, then c' = c*f + i*g goes to cNew and tanh(c')*o to hNew.
// Each operation is the one the Go loops compile to, unfused and in the
// same order, so the values match the composition of the slice kernels
// above bit for bit (TestLSTMGatesFastFusedMatchesGo). The operand order of
// each multiply and add follows the compiled Go too; it only decides which
// payload survives when both operands are NaN. Gates live in Y6-Y9 across
// the macros, which clobber Y0-Y5 and read the clamp bounds in Y12/Y13.
TEXT ·vLSTMGatesF32(SB), NOSPLIT, $0-56
	MOVQ pre+0(FP), DI
	MOVQ bias+8(FP), R11
	MOVQ c+16(FP), R8
	MOVQ cNew+24(FP), R9
	MOVQ hNew+32(FP), R10
	MOVQ rows+40(FP), CX
	MOVQ blocks+48(FP), R12
	LOADBOUNDS
	MOVQ R12, DX
	SHLQ $5, DX                 // H*4: byte stride between gate sections
	LEAQ (DX)(DX*2), R13        // 3*H*4
	TESTQ CX, CX
	JZ    lstmdone

lstmrow:
	MOVQ R11, SI
	MOVQ R12, BX

lstmblk:
	VMOVUPS (SI), Y0
	VADDPS  (DI), Y0, Y0        // bias + pre
	SIGMOID
	VMOVUPS Y0, (DI)
	VMOVAPS Y0, Y6              // i
	VMOVUPS (SI)(DX*1), Y0
	VADDPS  (DI)(DX*1), Y0, Y0
	SIGMOID
	VMOVUPS Y0, (DI)(DX*1)
	VMOVAPS Y0, Y7              // f
	VMOVUPS (SI)(DX*2), Y0
	VADDPS  (DI)(DX*2), Y0, Y0
	TANH
	VMOVUPS Y0, (DI)(DX*2)
	VMOVAPS Y0, Y8              // g
	VMOVUPS (SI)(R13*1), Y0
	VADDPS  (DI)(R13*1), Y0, Y0
	SIGMOID
	VMOVUPS Y0, (DI)(R13*1)
	VMOVAPS Y0, Y9              // o
	VMOVUPS (R8), Y10
	VMULPS  Y7, Y10, Y10        // c*f
	VMULPS  Y8, Y6, Y11         // i*g
	VADDPS  Y11, Y10, Y0        // c'
	VMOVUPS Y0, (R9)
	TANH
	VMULPS  Y9, Y0, Y0          // tanh(c')*o
	VMOVUPS Y0, (R10)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	DECQ    BX
	JNZ     lstmblk
	ADDQ    R13, DI             // past the f, g, o sections to the next row
	DECQ    CX
	JNZ     lstmrow

lstmdone:
	VZEROUPPER
	RET
