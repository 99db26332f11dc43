package tensor

import "math"

// Fast float32 gate nonlinearities for the int8 inference tier.
//
// When this tier was built, 82% of the f32 encode path's CPU time was in
// the exact gate kernel lstmGates (math.Exp/math.Tanh through the
// libm-accurate scalar paths), not in the GEMMs — so an int8 tier that only
// quantized the matrix multiplies could never clear its speedup gate. These kernels replace the
// libm calls with a range-reduced polynomial exp in pure float32: relative
// error is below ~5e-7, two orders of magnitude under the int8 tier's
// quantization noise (~1e-2 scale steps), so the drift harness budget is
// unaffected. The gate algebra is unchanged and stays float32 — only the
// transcendental approximation differs from the f32 tier.
//
// The kernels run their nonlinearities over contiguous slice sections
// through fastExpSlice32/fastSigmoidSlice32/fastTanhSlice32, which dispatch
// 8-lane blocks to the AVX2 kernels in gatesfast_amd64.s when available and
// fall back to the scalar fastExp32 family elsewhere (and for tails). The
// vector kernels use unfused mul/add in the exact scalar expression order —
// Go never contracts to FMA on amd64, and fastExp32 performs no FMA of its
// own for a twin to repeat — so asm and noasm builds of the int8 path
// compute bit-identical gate values; TestFastGateVectorMatchesScalar pins
// the equality. The LSTM cell, the int8 tier's dominant gate kernel,
// goes one step further when H is a multiple of 8: vLSTMGatesF32 fuses the
// bias add, the four activations, the cell combine and the h multiply into
// one vector pass per row, a bitwise twin of the slice composition
// (TestLSTMGatesFastFusedMatchesGo). The tape, the f32 tier and the f64
// oracle keep the libm-exact kernels of gates.go, whose float32 LSTM cell
// has an exact vector twin of its own (gatesexact_amd64.s).

const (
	fastLog2E = float32(1.4426950408889634) // 1/ln(2)
	// fastRoundMagic shifts a float32 in (-2^21, 2^21) so its fraction bits
	// drop: (t + magic) - magic rounds t to the nearest integer (ties to
	// even) in two adds, branch-free.
	fastRoundMagic = float32(1.5 * (1 << 23))
	// Cody-Waite split of ln(2): the high part carries 9 mantissa bits, so
	// n*fastLn2Hi is exact for every exponent n the clamp admits and the
	// reduction x - n*ln2 loses no precision even at |x| ~ 87 (a single
	// rounded x*log2e would cost ~|n| ulps of relative error).
	fastLn2Hi = float32(0.693359375)
	fastLn2Lo = float32(-2.12194440e-4)
)

// fastExp32 approximates e^x: x is reduced to x = n*ln2 + f with
// |f| <= ln2/2, e^f comes from a degree-6 Taylor polynomial (max relative
// error ~3e-7 over the reduced interval), and 2^n is assembled directly in
// the exponent bits. x clamps to ~[-87, 87]: below, e^x underflows the
// gates to an exact 0 (sigmoid tail); above, the gate inputs would already
// have saturated the nonlinearity, so the clamp only pins the output at its
// asymptote.
//
//perfvec:hotpath
func fastExp32(x float32) float32 {
	if x < -87.3 {
		return 0
	}
	if x > 87.3 {
		x = 87.3
	}
	n := (x*fastLog2E + fastRoundMagic) - fastRoundMagic // nearest int, exact in f32
	f := (x - n*fastLn2Hi) - n*fastLn2Lo
	// e^f, Horner over the Taylor coefficients 1/720 ... 1.
	p := float32(0.0013888889)
	p = p*f + 0.008333334
	p = p*f + 0.041666668
	p = p*f + 0.16666667
	p = p*f + 0.5
	p = p*f + 1
	p = p*f + 1
	return math.Float32frombits(uint32(int32(n)+127)<<23) * p
}

// fastSigmoid32: 1/(1+e^-x) over fastExp32.
//
//perfvec:hotpath
func fastSigmoid32(x float32) float32 { return 1 / (1 + fastExp32(-x)) }

// fastTanh32: (e^2x - 1)/(e^2x + 1) over fastExp32. Near zero the numerator
// cancels to ~1 ulp of 1, leaving an absolute error of order 1e-7 — far
// inside the int8 tier's quantization noise.
//
//perfvec:hotpath
func fastTanh32(x float32) float32 {
	e := fastExp32(2 * x)
	return (e - 1) / (e + 1)
}

// fastExpSlice32 applies fastExp32 to every element of d: full 8-lane blocks
// through the vector kernel when available, the remainder (and non-AVX2
// builds) through the scalar twin. Both paths produce identical bits, so the
// split point is unobservable.
//
//perfvec:hotpath
func fastExpSlice32(d []float32) {
	i := 0
	if useFastGates && len(d) >= 8 {
		b := len(d) / 8
		vExpF32(&d[0], b)
		i = b * 8
	}
	for ; i < len(d); i++ {
		d[i] = fastExp32(d[i])
	}
}

// fastSigmoidSlice32 applies fastSigmoid32 to every element of d.
//
//perfvec:hotpath
func fastSigmoidSlice32(d []float32) {
	i := 0
	if useFastGates && len(d) >= 8 {
		b := len(d) / 8
		vSigmoidF32(&d[0], b)
		i = b * 8
	}
	for ; i < len(d); i++ {
		d[i] = fastSigmoid32(d[i])
	}
}

// fastTanhSlice32 applies fastTanh32 to every element of d.
//
//perfvec:hotpath
func fastTanhSlice32(d []float32) {
	i := 0
	if useFastGates && len(d) >= 8 {
		b := len(d) / 8
		vTanhF32(&d[0], b)
		i = b * 8
	}
	for ; i < len(d); i++ {
		d[i] = fastTanh32(d[i])
	}
}

// LSTMGatesFast32 is the int8 tier's LSTMGates32: identical gate algebra,
// fast transcendentals. Unlike the exact op it consumes pre: the
// pre-activation buffer is overwritten with the bias-added, activated gates
// so the nonlinearities run in place over contiguous sections (the callers
// in internal/nn treat pre as slab scratch that dies with the call).
//
//perfvec:hotpath
func LSTMGatesFast32(s *Slab32, pre Tensor32, bias []float32, c Tensor32) (h, cNew Tensor32) {
	m, H := c.R, c.C
	if pre.R != m || pre.C != 4*H || len(bias) != 4*H {
		panic("tensor: LSTMGatesFast32 shape mismatch")
	}
	h = s.Mat(m, H)
	cNew = s.Mat(m, H)
	ParallelKernel(m, m*4*H*ewTransc, kLSTMGatesFast32, KernelArgs{
		S: [8][]float32{pre.Data, bias, c.Data, h.Data, cNew.Data},
		I: [6]int{H},
	})
	return h, cNew
}

// kLSTMGatesFast32: S0=pre, S1=bias, S2=c, S3=h', S4=c'; I0=H. When H is a whole
// number of 8-lane blocks the rows run through vLSTMGatesF32, one fused
// vector pass per row; otherwise through lstmGatesFastGo.
//
//perfvec:hotpath
func kLSTMGatesFast32(r0, r1 int, ka KernelArgs) {
	H := ka.I[0]
	if useFastGates && H > 0 && H%8 == 0 {
		pre, bd, c, hNew, cNew := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
		vLSTMGatesF32(&pre[r0*4*H], &bd[0], &c[r0*H], &cNew[r0*H], &hNew[r0*H], r1-r0, H/8)
		return
	}
	lstmGatesFastGo(r0, r1, ka)
}

// lstmGatesFastGo is kLSTMGatesFast32 as per-row slice sections, so the
// nonlinearities vectorize without the fused kernel: bias-add the row,
// sigmoid the contiguous i,f gates, tanh g, sigmoid o, then the cell/hidden
// combine with the tanh(c') pass running over the hidden row in place.
//
//perfvec:hotpath
func lstmGatesFastGo(r0, r1 int, ka KernelArgs) {
	pre, bd, c, hNew, cNew := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		zr := pre[r*4*H : (r+1)*4*H]
		for j, b := range bd {
			zr[j] += b
		}
		fastSigmoidSlice32(zr[:2*H])   // i, f
		fastTanhSlice32(zr[2*H : 3*H]) // g
		fastSigmoidSlice32(zr[3*H:])   // o
		cr := c[r*H : (r+1)*H]
		cn := cNew[r*H : (r+1)*H]
		hn := hNew[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			cv := zr[H+j]*cr[j] + zr[j]*zr[2*H+j]
			cn[j] = cv
			hn[j] = cv
		}
		fastTanhSlice32(hn)
		for j := 0; j < H; j++ {
			hn[j] *= zr[3*H+j]
		}
	}
}

// GRUGatesFast32 is the int8 tier's GRUGates32. Like LSTMGatesFast32
// it consumes pre (bias-added, sigmoid-activated in place).
//
//perfvec:hotpath
func GRUGatesFast32(s *Slab32, pre Tensor32, bias []float32, h Tensor32) (z, rh Tensor32) {
	m, H := h.R, h.C
	if pre.R != m || pre.C != 2*H || len(bias) != 2*H {
		panic("tensor: GRUGatesFast32 shape mismatch")
	}
	z = s.Mat(m, H)
	rh = s.Mat(m, H)
	ParallelKernel(m, m*2*H*ewTransc, kGRUGatesFast32, KernelArgs{
		S: [8][]float32{pre.Data, bias, h.Data, z.Data, rh.Data},
		I: [6]int{H},
	})
	return z, rh
}

// kGRUGatesFast32: S0=pre, S1=bias, S2=h, S3=z, S4=r⊙h; I0=H. Slice-section
// form.
//
//perfvec:hotpath
func kGRUGatesFast32(r0, r1 int, ka KernelArgs) {
	pre, bd, h, z, rh := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		pr := pre[r*2*H : (r+1)*2*H]
		for j, b := range bd {
			pr[j] += b
		}
		fastSigmoidSlice32(pr) // z, r — both gates, one contiguous pass
		hr := h[r*H : (r+1)*H]
		rhr := rh[r*H : (r+1)*H]
		copy(z[r*H:(r+1)*H], pr[:H])
		for j := 0; j < H; j++ {
			rhr[j] = pr[H+j] * hr[j]
		}
	}
}

// GateCombineFast32 is the int8 tier's GateCombine32 (nPre is read
// only; the tanh runs in place over the output row).
//
//perfvec:hotpath
func GateCombineFast32(s *Slab32, z, nPre Tensor32, bias []float32, h Tensor32) Tensor32 {
	m, H := h.R, h.C
	if z.R != m || z.C != H || nPre.R != m || nPre.C != H || len(bias) != H {
		panic("tensor: GateCombineFast32 shape mismatch")
	}
	out := s.Mat(m, H)
	ParallelKernel(m, m*H*ewTransc, kGateCombineFast32, KernelArgs{
		S: [8][]float32{nPre.Data, bias, z.Data, h.Data, out.Data},
		I: [6]int{H},
	})
	return out
}

// kGateCombineFast32: S0=nPre, S1=bias, S2=z, S3=h, S4=out; I0=H.
// Slice-section form.
//
//perfvec:hotpath
func kGateCombineFast32(r0, r1 int, ka KernelArgs) {
	nPre, bd, z, h, out := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		pr := nPre[r*H : (r+1)*H]
		or := out[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			or[j] = pr[j] + bd[j]
		}
		fastTanhSlice32(or)
		zr := z[r*H : (r+1)*H]
		hr := h[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			nv := or[j]
			zv := zr[j]
			or[j] = (nv - zv*nv) + zv*hr[j]
		}
	}
}

// SigmoidFastInPlace32 is the int8-tier twin of SigmoidInPlace32.
//
//perfvec:hotpath
func SigmoidFastInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data)*ewTransc, kSigmoidFastInPlace,
		KernelArgs{S: [8][]float32{a.Data}})
	return a
}

//perfvec:hotpath
func kSigmoidFastInPlace(i0, i1 int, ka KernelArgs) {
	fastSigmoidSlice32(ka.S[0][i0:i1])
}

// TanhFastInPlace32 is the int8-tier twin of TanhInPlace32.
//
//perfvec:hotpath
func TanhFastInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data)*ewTransc, kTanhFastInPlace,
		KernelArgs{S: [8][]float32{a.Data}})
	return a
}

//perfvec:hotpath
func kTanhFastInPlace(i0, i1 int, ka KernelArgs) {
	fastTanhSlice32(ka.S[0][i0:i1])
}

// AttentionSoftmaxFast32 is the int8-tier twin of AttentionSoftmax32: the
// identical max-subtracted row softmax with fastExp32 in place of math.Exp
// (and a float32 running sum — consistent with the rest of the fast tier).
//
//perfvec:hotpath
func AttentionSoftmaxFast32(s *Slab32, a Tensor32, scale float32) Tensor32 {
	out := s.Mat(a.R, a.C)
	ParallelKernel(a.R, a.R*a.C*ewTransc, kSoftmaxRowsFast,
		KernelArgs{S: [8][]float32{out.Data, a.Data}, I: [6]int{a.C}, F: [6]float32{scale}})
	return out
}

// kSoftmaxRowsFast: layout identical to kSoftmaxRows, with the shifted
// logits staged into the output row so the exp runs over one contiguous
// section.
//
//perfvec:hotpath
func kSoftmaxRowsFast(r0, r1 int, ka KernelArgs) {
	out, a := ka.S[0], ka.S[1]
	n := ka.I[0]
	scale := ka.F[0]
	for i := r0; i < r1; i++ {
		ar, or := a[i*n:(i+1)*n], out[i*n:(i+1)*n]
		maxv := ar[0] * scale
		for _, v := range ar[1:] {
			if sv := v * scale; sv > maxv {
				maxv = sv
			}
		}
		for j, v := range ar {
			or[j] = v*scale - maxv
		}
		fastExpSlice32(or)
		var sum float32
		for _, e := range or {
			sum += e
		}
		inv := 1 / sum
		for j := range or {
			or[j] *= inv
		}
	}
}
