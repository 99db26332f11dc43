// AVX2 twin of the exact float32 LSTM gate kernel (gates.go).
//
// EXP4 is math.Exp on four float64 lanes, instruction for instruction the
// FMA arm of $GOROOT/src/math/exp_amd64.s, which math takes on every CPU
// with AVX and FMA: the fused LN2U/LN2L reduction, the ×0.0625 step, the
// fused Horner series, the four y·(y+2) squarings with the last one fused
// with +1, and the ldexp step with its two-multiply subnormal path. The
// scalar code's branches become masks applied in its order of precedence:
// a non-finite x returns x (−Inf returns 0), x > 7.09782712893384e+02 and
// a biased exponent ≥ 0x7FF return +Inf, and a biased exponent below −52
// returns 0. VCVTPD2DQ rounds to nearest and returns 0x80000000 out of
// range, as the scalar CVTSD2SL does, so even the lanes that end in a
// special case compute the same exponent. A group whose lanes all have
// |x| < 708 can meet none of the special cases and skips them in one
// branch; gate inputs almost always do.
//
// SIGMOID4 and TANH4 build 1/(1+exp(−x)) and math.Tanh on that core.
// math.Tanh is pure Go and the compiler never fuses on amd64, so TANH4 is
// its three branches in unfused VMULPD/VADDPD/VDIVPD, each computed on
// every lane and blended by the scalar code's own comparisons.
// vLSTMGatesExact widens its float32 inputs with VCVTPS2PD and rounds each
// activation once with VCVTPD2PS, the float32(·) conversions of the scalar
// code; the float32 cell arithmetic around them keeps the compiled Go
// code's operand order, which decides the payload only when two NaNs meet.
// The TestExact* tests (gatesexact_test.go) pin every entry point here to
// the scalar code bit for bit.

//go:build !noasm

#include "textflag.h"

DATA  dexpLog2e<>+0(SB)/8, $0x3FF71547652B82FE   // 1/ln2
DATA  dexpLog2e<>+8(SB)/8, $0x3FF71547652B82FE
DATA  dexpLog2e<>+16(SB)/8, $0x3FF71547652B82FE
DATA  dexpLog2e<>+24(SB)/8, $0x3FF71547652B82FE
GLOBL dexpLog2e<>(SB), RODATA|NOPTR, $32

DATA  dexpLn2U<>+0(SB)/8, $0x3FE62E42FEFA3000   // ln2, upper part
DATA  dexpLn2U<>+8(SB)/8, $0x3FE62E42FEFA3000
DATA  dexpLn2U<>+16(SB)/8, $0x3FE62E42FEFA3000
DATA  dexpLn2U<>+24(SB)/8, $0x3FE62E42FEFA3000
GLOBL dexpLn2U<>(SB), RODATA|NOPTR, $32

DATA  dexpLn2L<>+0(SB)/8, $0x3D53DE6AF278ECE6   // ln2, lower part
DATA  dexpLn2L<>+8(SB)/8, $0x3D53DE6AF278ECE6
DATA  dexpLn2L<>+16(SB)/8, $0x3D53DE6AF278ECE6
DATA  dexpLn2L<>+24(SB)/8, $0x3D53DE6AF278ECE6
GLOBL dexpLn2L<>(SB), RODATA|NOPTR, $32

DATA  dexpSixteenth<>+0(SB)/8, $0x3FB0000000000000   // 0.0625
DATA  dexpSixteenth<>+8(SB)/8, $0x3FB0000000000000
DATA  dexpSixteenth<>+16(SB)/8, $0x3FB0000000000000
DATA  dexpSixteenth<>+24(SB)/8, $0x3FB0000000000000
GLOBL dexpSixteenth<>(SB), RODATA|NOPTR, $32

DATA  dexpT64<>+0(SB)/8, $0x3EFA01A01A01A01A   // exprodata+64: 2.4801587301587301587e-5 = 1/8!
DATA  dexpT64<>+8(SB)/8, $0x3EFA01A01A01A01A
DATA  dexpT64<>+16(SB)/8, $0x3EFA01A01A01A01A
DATA  dexpT64<>+24(SB)/8, $0x3EFA01A01A01A01A
GLOBL dexpT64<>(SB), RODATA|NOPTR, $32

DATA  dexpT56<>+0(SB)/8, $0x3F2A01A01A01A01A   // exprodata+56: 1.9841269841269841270e-4 = 1/7!
DATA  dexpT56<>+8(SB)/8, $0x3F2A01A01A01A01A
DATA  dexpT56<>+16(SB)/8, $0x3F2A01A01A01A01A
DATA  dexpT56<>+24(SB)/8, $0x3F2A01A01A01A01A
GLOBL dexpT56<>(SB), RODATA|NOPTR, $32

DATA  dexpT48<>+0(SB)/8, $0x3F56C16C16C16C17   // exprodata+48: 1.3888888888888888889e-3 = 1/6!
DATA  dexpT48<>+8(SB)/8, $0x3F56C16C16C16C17
DATA  dexpT48<>+16(SB)/8, $0x3F56C16C16C16C17
DATA  dexpT48<>+24(SB)/8, $0x3F56C16C16C16C17
GLOBL dexpT48<>(SB), RODATA|NOPTR, $32

DATA  dexpT40<>+0(SB)/8, $0x3F81111111111111   // exprodata+40: 8.3333333333333333333e-3 = 1/5!
DATA  dexpT40<>+8(SB)/8, $0x3F81111111111111
DATA  dexpT40<>+16(SB)/8, $0x3F81111111111111
DATA  dexpT40<>+24(SB)/8, $0x3F81111111111111
GLOBL dexpT40<>(SB), RODATA|NOPTR, $32

DATA  dexpT32<>+0(SB)/8, $0x3FA5555555555555   // exprodata+32: 4.1666666666666666667e-2 = 1/4!
DATA  dexpT32<>+8(SB)/8, $0x3FA5555555555555
DATA  dexpT32<>+16(SB)/8, $0x3FA5555555555555
DATA  dexpT32<>+24(SB)/8, $0x3FA5555555555555
GLOBL dexpT32<>(SB), RODATA|NOPTR, $32

DATA  dexpT24<>+0(SB)/8, $0x3FC5555555555555   // exprodata+24: 1.6666666666666666667e-1 = 1/3!
DATA  dexpT24<>+8(SB)/8, $0x3FC5555555555555
DATA  dexpT24<>+16(SB)/8, $0x3FC5555555555555
DATA  dexpT24<>+24(SB)/8, $0x3FC5555555555555
GLOBL dexpT24<>(SB), RODATA|NOPTR, $32

DATA  dexpHalf<>+0(SB)/8, $0x3FE0000000000000   // 0.5
DATA  dexpHalf<>+8(SB)/8, $0x3FE0000000000000
DATA  dexpHalf<>+16(SB)/8, $0x3FE0000000000000
DATA  dexpHalf<>+24(SB)/8, $0x3FE0000000000000
GLOBL dexpHalf<>(SB), RODATA|NOPTR, $32

DATA  dexpOne<>+0(SB)/8, $0x3FF0000000000000   // 1
DATA  dexpOne<>+8(SB)/8, $0x3FF0000000000000
DATA  dexpOne<>+16(SB)/8, $0x3FF0000000000000
DATA  dexpOne<>+24(SB)/8, $0x3FF0000000000000
GLOBL dexpOne<>(SB), RODATA|NOPTR, $32

DATA  dexpTwo<>+0(SB)/8, $0x4000000000000000   // 2
DATA  dexpTwo<>+8(SB)/8, $0x4000000000000000
DATA  dexpTwo<>+16(SB)/8, $0x4000000000000000
DATA  dexpTwo<>+24(SB)/8, $0x4000000000000000
GLOBL dexpTwo<>(SB), RODATA|NOPTR, $32

DATA  dexpTiny<>+0(SB)/8, $0x0010000000000000   // 2^-1022
DATA  dexpTiny<>+8(SB)/8, $0x0010000000000000
DATA  dexpTiny<>+16(SB)/8, $0x0010000000000000
DATA  dexpTiny<>+24(SB)/8, $0x0010000000000000
GLOBL dexpTiny<>(SB), RODATA|NOPTR, $32

DATA  dexpSafe<>+0(SB)/8, $0x4086200000000000   // 708: |x| below it has a normal result
DATA  dexpSafe<>+8(SB)/8, $0x4086200000000000
DATA  dexpSafe<>+16(SB)/8, $0x4086200000000000
DATA  dexpSafe<>+24(SB)/8, $0x4086200000000000
GLOBL dexpSafe<>(SB), RODATA|NOPTR, $32

DATA  dexpOverflow<>+0(SB)/8, $0x40862E42FEFA39EF   // 7.09782712893384e+02
DATA  dexpOverflow<>+8(SB)/8, $0x40862E42FEFA39EF
DATA  dexpOverflow<>+16(SB)/8, $0x40862E42FEFA39EF
DATA  dexpOverflow<>+24(SB)/8, $0x40862E42FEFA39EF
GLOBL dexpOverflow<>(SB), RODATA|NOPTR, $32

DATA  dexpPosInf<>+0(SB)/8, $0x7FF0000000000000   // +Inf
DATA  dexpPosInf<>+8(SB)/8, $0x7FF0000000000000
DATA  dexpPosInf<>+16(SB)/8, $0x7FF0000000000000
DATA  dexpPosInf<>+24(SB)/8, $0x7FF0000000000000
GLOBL dexpPosInf<>(SB), RODATA|NOPTR, $32

DATA  dexpNegInf<>+0(SB)/8, $0xFFF0000000000000   // -Inf
DATA  dexpNegInf<>+8(SB)/8, $0xFFF0000000000000
DATA  dexpNegInf<>+16(SB)/8, $0xFFF0000000000000
DATA  dexpNegInf<>+24(SB)/8, $0xFFF0000000000000
GLOBL dexpNegInf<>(SB), RODATA|NOPTR, $32

DATA  dexpMaxFinite<>+0(SB)/8, $0x7FEFFFFFFFFFFFFF   // largest finite, as bits
DATA  dexpMaxFinite<>+8(SB)/8, $0x7FEFFFFFFFFFFFFF
DATA  dexpMaxFinite<>+16(SB)/8, $0x7FEFFFFFFFFFFFFF
DATA  dexpMaxFinite<>+24(SB)/8, $0x7FEFFFFFFFFFFFFF
GLOBL dexpMaxFinite<>(SB), RODATA|NOPTR, $32

DATA  dexpAbs<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF   // all but the sign
DATA  dexpAbs<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA  dexpAbs<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA  dexpAbs<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL dexpAbs<>(SB), RODATA|NOPTR, $32

DATA  dexpSign<>+0(SB)/8, $0x8000000000000000   // the sign
DATA  dexpSign<>+8(SB)/8, $0x8000000000000000
DATA  dexpSign<>+16(SB)/8, $0x8000000000000000
DATA  dexpSign<>+24(SB)/8, $0x8000000000000000
GLOBL dexpSign<>(SB), RODATA|NOPTR, $32

DATA  dtanhP0<>+0(SB)/8, $0xBFEEDC5BAAFD6F4B   // dtanhP[0]
DATA  dtanhP0<>+8(SB)/8, $0xBFEEDC5BAAFD6F4B
DATA  dtanhP0<>+16(SB)/8, $0xBFEEDC5BAAFD6F4B
DATA  dtanhP0<>+24(SB)/8, $0xBFEEDC5BAAFD6F4B
GLOBL dtanhP0<>(SB), RODATA|NOPTR, $32

DATA  dtanhP1<>+0(SB)/8, $0xC058D26A0E26682D   // dtanhP[1]
DATA  dtanhP1<>+8(SB)/8, $0xC058D26A0E26682D
DATA  dtanhP1<>+16(SB)/8, $0xC058D26A0E26682D
DATA  dtanhP1<>+24(SB)/8, $0xC058D26A0E26682D
GLOBL dtanhP1<>(SB), RODATA|NOPTR, $32

DATA  dtanhP2<>+0(SB)/8, $0xC0993AC030580563   // dtanhP[2]
DATA  dtanhP2<>+8(SB)/8, $0xC0993AC030580563
DATA  dtanhP2<>+16(SB)/8, $0xC0993AC030580563
DATA  dtanhP2<>+24(SB)/8, $0xC0993AC030580563
GLOBL dtanhP2<>(SB), RODATA|NOPTR, $32

DATA  dtanhQ0<>+0(SB)/8, $0x405C33F28A581B86   // dtanhQ[0]
DATA  dtanhQ0<>+8(SB)/8, $0x405C33F28A581B86
DATA  dtanhQ0<>+16(SB)/8, $0x405C33F28A581B86
DATA  dtanhQ0<>+24(SB)/8, $0x405C33F28A581B86
GLOBL dtanhQ0<>(SB), RODATA|NOPTR, $32

DATA  dtanhQ1<>+0(SB)/8, $0x40A176FA0E5535FA   // dtanhQ[1]
DATA  dtanhQ1<>+8(SB)/8, $0x40A176FA0E5535FA
DATA  dtanhQ1<>+16(SB)/8, $0x40A176FA0E5535FA
DATA  dtanhQ1<>+24(SB)/8, $0x40A176FA0E5535FA
GLOBL dtanhQ1<>(SB), RODATA|NOPTR, $32

DATA  dtanhQ2<>+0(SB)/8, $0x40B2EC102442040C   // dtanhQ[2]
DATA  dtanhQ2<>+8(SB)/8, $0x40B2EC102442040C
DATA  dtanhQ2<>+16(SB)/8, $0x40B2EC102442040C
DATA  dtanhQ2<>+24(SB)/8, $0x40B2EC102442040C
GLOBL dtanhQ2<>(SB), RODATA|NOPTR, $32

DATA  dtanhMid<>+0(SB)/8, $0x3FE4000000000000   // 0.625
DATA  dtanhMid<>+8(SB)/8, $0x3FE4000000000000
DATA  dtanhMid<>+16(SB)/8, $0x3FE4000000000000
DATA  dtanhMid<>+24(SB)/8, $0x3FE4000000000000
GLOBL dtanhMid<>(SB), RODATA|NOPTR, $32

DATA  dtanhBig<>+0(SB)/8, $0x404601E678FC457B   // 0.5*MAXLOG
DATA  dtanhBig<>+8(SB)/8, $0x404601E678FC457B
DATA  dtanhBig<>+16(SB)/8, $0x404601E678FC457B
DATA  dtanhBig<>+24(SB)/8, $0x404601E678FC457B
GLOBL dtanhBig<>(SB), RODATA|NOPTR, $32

DATA  dexpBias<>+0(SB)/8, $0x000003FF000003FF   // int32 0x3FF
DATA  dexpBias<>+8(SB)/8, $0x000003FF000003FF
GLOBL dexpBias<>(SB), RODATA|NOPTR, $16

DATA  dexpBiasM1<>+0(SB)/8, $0x000003FE000003FE   // int32 0x3FE
DATA  dexpBiasM1<>+8(SB)/8, $0x000003FE000003FE
GLOBL dexpBiasM1<>(SB), RODATA|NOPTR, $16

DATA  dexpI1<>+0(SB)/8, $0x0000000100000001   // int32 1
DATA  dexpI1<>+8(SB)/8, $0x0000000100000001
GLOBL dexpI1<>(SB), RODATA|NOPTR, $16

DATA  dexpIm52<>+0(SB)/8, $0xFFFFFFCCFFFFFFCC   // int32 -52
DATA  dexpIm52<>+8(SB)/8, $0xFFFFFFCCFFFFFFCC
GLOBL dexpIm52<>(SB), RODATA|NOPTR, $16

DATA  dexpI7FE<>+0(SB)/8, $0x000007FE000007FE   // int32 0x7FE
DATA  dexpI7FE<>+8(SB)/8, $0x000007FE000007FE
GLOBL dexpI7FE<>(SB), RODATA|NOPTR, $16

// EXP4(special, done): Y0 = math.Exp(Y0), lane by lane. Clobbers Y1-Y5
// and AX. When every lane has |x| < 708, n lies in [-1021, 1021] and the
// result is the ldexp step's single multiply; otherwise the code at the
// label special runs the whole step and the special cases. special and
// done must be labels unique to the expansion.
#define EXP4(special, done) \
	VMOVAPD      Y0, Y5                         \ // x, kept for the special cases
	VMULPD       dexpLog2e<>(SB), Y0, Y1        \
	VCVTPD2DQY   Y1, X2                         \ // n = round(x/ln2)
	VCVTDQ2PD    X2, Y1                         \
	VFNMADD231PD dexpLn2U<>(SB), Y1, Y0         \ // x - n*ln2u, fused
	VFNMADD231PD dexpLn2L<>(SB), Y1, Y0         \ // - n*ln2l, fused
	VMULPD       dexpSixteenth<>(SB), Y0, Y0    \ // r
	VMOVUPD      dexpT64<>(SB), Y1              \
	VFMADD213PD  dexpT56<>(SB), Y0, Y1          \ // Taylor series, fused Horner
	VFMADD213PD  dexpT48<>(SB), Y0, Y1          \
	VFMADD213PD  dexpT40<>(SB), Y0, Y1          \
	VFMADD213PD  dexpT32<>(SB), Y0, Y1          \
	VFMADD213PD  dexpT24<>(SB), Y0, Y1          \
	VFMADD213PD  dexpHalf<>(SB), Y0, Y1         \
	VFMADD213PD  dexpOne<>(SB), Y0, Y1          \
	VMULPD       Y1, Y0, Y0                     \ // y = e^r - 1
	VADDPD       dexpTwo<>(SB), Y0, Y1          \ // y = y*(y+2), four times
	VMULPD       Y1, Y0, Y0                     \
	VADDPD       dexpTwo<>(SB), Y0, Y1          \
	VMULPD       Y1, Y0, Y0                     \
	VADDPD       dexpTwo<>(SB), Y0, Y1          \
	VMULPD       Y1, Y0, Y0                     \
	VADDPD       dexpTwo<>(SB), Y0, Y1          \
	VFMADD213PD  dexpOne<>(SB), Y1, Y0          \ // the last one fused with +1
	VPADDD       dexpBias<>(SB), X2, X2         \ // k = n + 0x3FF
	VANDPD       dexpAbs<>(SB), Y5, Y3          \
	VCMPPD       $0x11, dexpSafe<>(SB), Y3, Y3  \ // |x| < 708, NaN not
	VMOVMSKPD    Y3, AX                         \
	CMPQ         AX, $15                        \
	JNE          special                        \
	VPMOVZXDQ    X2, Y4                         \
	VPSLLQ       $52, Y4, Y4                    \
	VMULPD       Y4, Y0, Y0                     \ // × 2^(k-1023)
	JMP          done                           \
special:                                        \
	VMOVDQU      dexpI1<>(SB), X3               \
	VPCMPGTD     X2, X3, X3                     \ // k <= 0: subnormal
	VPAND        dexpBiasM1<>(SB), X3, X4       \
	VPADDD       X4, X2, X4                     \ // k, or k + 0x3FE where subnormal
	VPMOVZXDQ    X4, Y4                         \
	VPSLLQ       $52, Y4, Y4                    \
	VMULPD       Y4, Y0, Y0                     \
	VPMOVSXDQ    X3, Y3                         \
	VMOVUPD      dexpOne<>(SB), Y4              \
	VBLENDVPD    Y3, dexpTiny<>(SB), Y4, Y4     \
	VMULPD       Y4, Y0, Y0                     \ // the subnormal path's second multiply
	VMOVDQU      dexpIm52<>(SB), X4             \
	VPCMPGTD     X2, X4, X4                     \ // k < -52: 0
	VPMOVSXDQ    X4, Y4                         \
	VANDNPD      Y0, Y4, Y0                     \
	VPCMPGTD     dexpI7FE<>(SB), X2, X4         \ // k >= 0x7FF: +Inf
	VPMOVSXDQ    X4, Y4                         \
	VCMPPD       $0x1E, dexpOverflow<>(SB), Y5, Y3 \ // x > 709.78...: +Inf
	VORPD        Y3, Y4, Y4                     \
	VBLENDVPD    Y4, dexpPosInf<>(SB), Y0, Y0   \
	VANDPD       dexpAbs<>(SB), Y5, Y3          \
	VPCMPGTQ     dexpMaxFinite<>(SB), Y3, Y3    \ // NaN or ±Inf: x
	VBLENDVPD    Y3, Y5, Y0, Y0                 \
	VPCMPEQQ     dexpNegInf<>(SB), Y5, Y3       \ // -Inf: 0
	VANDNPD      Y0, Y3, Y0                     \
done:

// SIGMOID4(special, done): Y0 = 1/(1+math.Exp(-Y0)). Clobbers Y1-Y5 and
// AX; the labels are EXP4's.
#define SIGMOID4(special, done) \
	VXORPD  dexpSign<>(SB), Y0, Y0 \
	EXP4(special, done)            \
	VADDPD  dexpOne<>(SB), Y0, Y0  \
	VMOVUPD dexpOne<>(SB), Y1      \
	VDIVPD  Y0, Y1, Y0

// TANH4(special, done): Y0 = math.Tanh(Y0). Clobbers Y1-Y7 and AX; the
// labels are EXP4's.
#define TANH4(special, done) \
	VMOVAPD   Y0, Y6                           \ // x
	VMULPD    Y6, Y6, Y1                       \ // s = x*x
	VMULPD    dtanhP0<>(SB), Y1, Y2            \
	VADDPD    dtanhP1<>(SB), Y2, Y2            \
	VMULPD    Y1, Y2, Y2                       \
	VADDPD    dtanhP2<>(SB), Y2, Y2            \ // P(s)
	VADDPD    dtanhQ0<>(SB), Y1, Y3            \
	VMULPD    Y1, Y3, Y3                       \
	VADDPD    dtanhQ1<>(SB), Y3, Y3            \
	VMULPD    Y1, Y3, Y3                       \
	VADDPD    dtanhQ2<>(SB), Y3, Y3            \ // Q(s)
	VMULPD    Y6, Y1, Y1                       \
	VMULPD    Y2, Y1, Y1                       \
	VDIVPD    Y3, Y1, Y1                       \
	VADDPD    Y1, Y6, Y7                       \ // |x| < 0.625: x + x*s*P(s)/Q(s)
	VXORPD    Y2, Y2, Y2                       \
	VCMPPD    $0, Y2, Y6, Y3                   \
	VBLENDVPD Y3, Y6, Y7, Y7                   \ // x == 0: x
	VANDPD    dexpAbs<>(SB), Y6, Y0            \
	VADDPD    Y0, Y0, Y0                       \
	EXP4(special, done)                        \ // e = exp(2|x|)
	VADDPD    dexpOne<>(SB), Y0, Y0            \
	VMOVUPD   dexpTwo<>(SB), Y1                \
	VDIVPD    Y0, Y1, Y0                       \
	VMOVUPD   dexpOne<>(SB), Y1                \
	VSUBPD    Y0, Y1, Y0                       \ // 1 - 2/(e+1)
	VANDPD    dexpSign<>(SB), Y6, Y1           \
	VXORPD    Y1, Y0, Y0                       \ // negated where x < 0
	VANDPD    dexpAbs<>(SB), Y6, Y2            \
	VCMPPD    $0x1D, dtanhMid<>(SB), Y2, Y3    \ // |x| >= 0.625
	VBLENDVPD Y3, Y0, Y7, Y7                   \
	VCMPPD    $0x1E, dtanhBig<>(SB), Y2, Y3    \ // |x| > 0.5*MAXLOG: ±1
	VORPD     dexpOne<>(SB), Y1, Y0            \
	VBLENDVPD Y3, Y0, Y7, Y0

// func vExpExact(dst, src *float64, groups int)
TEXT ·vExpExact(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+16(FP), CX

exploop:
	VMOVUPD (SI), Y0
	EXP4(expspecial, expdone)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     exploop
	VZEROUPPER
	RET

// func vTanh64Exact(dst, src *float64, groups int)
TEXT ·vTanh64Exact(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+16(FP), CX

tanh64loop:
	VMOVUPD (SI), Y0
	TANH4(tanh64special, tanh64done)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     tanh64loop
	VZEROUPPER
	RET

// func vLSTMGatesExact(pre, bias, c, hNew, cNew, acts, tanhC *float32, rows, H int)
//
// Per row, per group of four columns j: the gates i, f, g, o at byte
// offsets 0, 4H, 8H and 12H of the pre row, c' = c*f + g*i and
// h' = tanh(c')*o, as lstmRow computes them. DX = 4H and R13 = 12H.
TEXT ·vLSTMGatesExact(SB), NOSPLIT, $0-72
	MOVQ pre+0(FP), DI
	MOVQ c+16(FP), R8
	MOVQ hNew+24(FP), R9
	MOVQ cNew+32(FP), R10
	MOVQ acts+40(FP), R11
	MOVQ tanhC+48(FP), R12
	MOVQ rows+56(FP), CX
	MOVQ H+64(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R13

lstmrow:
	MOVQ bias+8(FP), SI
	MOVQ H+64(FP), BX
	SHRQ $2, BX

lstmgrp:
	VMOVUPS    (DI), X0
	VADDPS     (SI), X0, X0
	VCVTPS2PD  X0, Y0
	SIGMOID4(lstmspecial1, lstmdone1)
	VCVTPD2PSY Y0, X8            // i
	VMOVUPS    (DI)(DX*1), X0
	VADDPS     (SI)(DX*1), X0, X0
	VCVTPS2PD  X0, Y0
	SIGMOID4(lstmspecial2, lstmdone2)
	VCVTPD2PSY Y0, X9            // f
	VMOVUPS    (DI)(DX*2), X0
	VADDPS     (SI)(DX*2), X0, X0
	VCVTPS2PD  X0, Y0
	TANH4(lstmspecial3, lstmdone3)
	VCVTPD2PSY Y0, X10           // g
	VMOVUPS    (DI)(R13*1), X0
	VADDPS     (SI)(R13*1), X0, X0
	VCVTPS2PD  X0, Y0
	SIGMOID4(lstmspecial4, lstmdone4)
	VCVTPD2PSY Y0, X11           // o
	VMULPS     X8, X10, X12      // g*i
	VMOVUPS    (R8), X13
	VMULPS     X9, X13, X13      // c*f
	VADDPS     X12, X13, X13     // c'
	VMOVUPS    X13, (R10)
	VCVTPS2PD  X13, Y0
	TANH4(lstmspecial5, lstmdone5)
	VCVTPD2PSY Y0, X12           // tanh(c')
	VMULPS     X11, X12, X13     // h'
	VMOVUPS    X13, (R9)
	TESTQ      R11, R11
	JZ         lstmnext
	VMOVUPS    X8, (R11)
	VMOVUPS    X9, (R11)(DX*1)
	VMOVUPS    X10, (R11)(DX*2)
	VMOVUPS    X11, (R11)(R13*1)
	VMOVUPS    X12, (R12)
	ADDQ       $16, R11
	ADDQ       $16, R12

lstmnext:
	ADDQ $16, DI
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	DECQ BX
	JNZ  lstmgrp
	MOVQ H+64(FP), AX
	ANDQ $3, AX
	SHLQ $2, AX                  // the bytes of the row's scalar tail
	ADDQ R13, DI                 // past the f, g and o sections
	ADDQ AX, DI
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	TESTQ R11, R11
	JZ   lstmrowend
	ADDQ R13, R11
	ADDQ AX, R11
	ADDQ AX, R12

lstmrowend:
	DECQ CX
	JNZ  lstmrow
	VZEROUPPER
	RET
