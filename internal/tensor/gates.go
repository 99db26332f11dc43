package tensor

import (
	"fmt"
	"math"
)

// Fused recurrent-cell kernels.
//
// A GRU/LSTM timestep built from the generic ops in ops.go records 10-15
// tape nodes: bias broadcasts, column slices, per-gate nonlinearities, and
// the elementwise state arithmetic, each with its own output tensor and
// op record. The fused ops below collapse everything after the cell's
// GEMM into one or two tape records that make a single pass over the
// pre-activation block — an LSTM step becomes MatMulBTCat + LSTMGates, a GRU
// step MatMulBTCat + GRUGates + MatMulBTCat + GateCombine.
//
// The fusion is numerically invisible: every float32 operation the unfused
// composition performed is replayed with the same operands, the same
// expression shapes (and hence the same intermediate roundings), and the same
// accumulation order in both the forward and backward passes, so training
// loss curves and final model bytes are bit-for-bit identical to the unfused
// graph. The tests in gates_test.go assert this equivalence directly against
// compositions of the primitive ops. Gate activations needed by the fused
// VJPs are saved in arena scratch tensors referenced from the op record, so
// fusion adds no step-lifetime allocations either.
//
// One kernel per op. Each forward row loop (lstmGates, gruGates,
// gateCombine here; softmaxRows, the elementwise ops and the copies in
// ops.go and stack.go) is a single function over float32 | float64. The
// tape op, the forward-only Slab32 op (infer32.go) and the float64 oracle
// op (infer64.go) all run it; only allocation and dispatch differ. The
// backward scratch arguments (gate activations, tanh(c'), ...) are nil
// outside the tape and their stores are skipped. Go compiles the two
// widths as separate instantiations, so the loops pay no dictionary cost.
//
// The float32-only LSTM kernel (kLSTMGates) hands whole 4-lane groups to
// an AVX2 twin (gatesexact_amd64.s) that produces the scalar code's bits:
// math.Exp's amd64 FMA arm instruction for instruction — an FMA the scalar
// reference performs itself, never one it does not — and math.Tanh's
// unfused expression. It runs only where math takes that arm
// (useExactGates). The generic kernels stay the reference, the portable
// path and the float64 oracle's kernel.

// float is the element type of the shared forward kernels: float32 for the
// tape and the serving slab, float64 for the oracle.
type float interface{ float32 | float64 }

// sigmoid and tanh compute in float64 and round once to F: the Sigmoid and
// Tanh ops' values at float32, the plain float64 functions at float64.
func sigmoid[F float](x F) F { return F(1 / (1 + math.Exp(-float64(x)))) }
func tanh[F float](x F) F    { return F(math.Tanh(float64(x))) }

// LSTMGates fuses an LSTM cell's gate nonlinearities and state update: given
// the joint gate pre-activation pre[m,4H] (gate order input, forget, cell,
// output — the layout of nn's combined weight matrix), the gate bias[4H],
// and the previous cell state c[m,H], it computes
//
//	i = σ(pre_i + b_i)   f = σ(pre_f + b_f)
//	g = tanh(pre_g + b_g) o = σ(pre_o + b_o)
//	c' = f⊙c + i⊙g        h' = o⊙tanh(c')
//
// in one pass and returns (h', c') with a single fused op record.
func LSTMGates(tp *Tape, pre, bias, c *Tensor) (*Tensor, *Tensor) {
	m, H := c.Rows(), c.Cols()
	if pre.Rows() != m || pre.Cols() != 4*H || bias.Len() != 4*H {
		panic(fmt.Sprintf("tensor: LSTMGates shape mismatch %v / %v / %v", pre.Shape, bias.Shape, c.Shape))
	}
	hNew := tp.alloc(m, H)
	cNew := tp.alloc(m, H)
	acts := tp.alloc(m, 4*H) // σ/tanh gate activations, kept for backward
	tanhC := tp.alloc(m, H)  // tanh(c'), kept for backward
	tp.parallel(m, m*4*H*ewTransc, kLSTMGates, KernelArgs{
		S: [8][]float32{pre.Data, bias.Data, c.Data, hNew.Data, cNew.Data, acts.Data, tanhC.Data},
		I: [6]int{H},
	})
	tp.record(opRecord{kind: opLSTMGates, a: pre, b: bias, c: c, out: hNew, out2: cNew, s1: acts, s2: tanhC})
	return hNew, cNew
}

// kLSTMGates: S0=pre, S1=bias, S2=c, S3=h', S4=c', S5=acts, S6=tanh(c')
// (S5/S6 nil on the forward-only path); I0=H. Partitioned over batch rows.
// The whole 4-lane groups of each row run through the exact vector twin
// where there is one (gatesexact_amd64.s), the remaining columns through
// lstmGates.
//
//perfvec:hotpath
func kLSTMGates(r0, r1 int, ka KernelArgs) {
	H := ka.I[0]
	pre, bias, c, hNew, cNew, acts, tanhC := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4], ka.S[5], ka.S[6]
	j0 := 0
	if useExactGates && H >= 4 && r1 > r0 {
		vLSTMGatesExact(&pre[r0*4*H], &bias[0], &c[r0*H], &hNew[r0*H], &cNew[r0*H],
			elemPtr(acts, r0*4*H), elemPtr(tanhC, r0*H), r1-r0, H)
		j0 = H &^ 3
	}
	if j0 < H {
		lstmGates(r0, r1, j0, H, pre, bias, c, hNew, cNew, acts, tanhC)
	}
}

// lstmGates is the LSTM gate block over columns [j0, H) of rows [r0, r1)
// of pre[m,4H]: it writes h' and c', and the gate activations and tanh(c')
// into acts and tanhC when those are non-nil.
//
//perfvec:hotpath
func lstmGates[F float](r0, r1, j0, H int, pre, bias, c, hNew, cNew, acts, tanhC []F) {
	for r := r0; r < r1; r++ {
		var ar, tr []F
		if acts != nil {
			ar, tr = acts[r*4*H:(r+1)*4*H], tanhC[r*H:(r+1)*H]
		}
		lstmRow(j0, pre[r*4*H:(r+1)*4*H], bias, c[r*H:(r+1)*H], hNew[r*H:(r+1)*H], cNew[r*H:(r+1)*H], ar, tr)
	}
}

// lstmRow is columns [j0, H) of one row of lstmGates, H = len(c). A call
// per row keeps the row loop's state out of the inner loop, where every
// math.Exp/math.Tanh call spills and reloads what is live.
//
//perfvec:hotpath
func lstmRow[F float](j0 int, zr, bias, c, hNew, cNew, acts, tanhC []F) {
	H := len(c)
	for j := j0; j < H; j++ {
		i := sigmoid(zr[j] + bias[j])
		f := sigmoid(zr[H+j] + bias[H+j])
		g := tanh(zr[2*H+j] + bias[2*H+j])
		o := sigmoid(zr[3*H+j] + bias[3*H+j])
		cv := f*c[j] + i*g
		cNew[j] = cv
		t := tanh(cv)
		hNew[j] = o * t
		if acts != nil {
			acts[j], acts[H+j], acts[2*H+j], acts[3*H+j] = i, f, g, o
			tanhC[j] = t
		}
	}
}

// vjpLSTMGates: a=pre, b=bias, c=prev cell state, out=h', out2=c',
// s1=gate activations, s2=tanh(c').
//
//perfvec:hotpath
func vjpLSTMGates(tp *Tape, r *opRecord) {
	gh, gc := r.out.Grad, r.out2.Grad
	if gh == nil && gc == nil {
		return
	}
	pre, bias, c := r.a, r.b, r.c
	m, H := c.Rows(), c.Cols()
	// The op's own pre-activation gradients go into arena scratch (the
	// tensor the unfused graph materialized as the AddBias output's
	// grad): the bias reduction below must see exactly this op's
	// contribution, not whatever pre.Grad already accumulated.
	dpre := tp.alloc(m, 4*H).Data
	tp.parallel(m, m*H*16, kLSTMGatesVJP, KernelArgs{
		S: [8][]float32{r.s1.Data, c.Data, r.s2.Data, dpre, pre.ensureGrad(), c.ensureGrad(), gh, gc},
		I: [6]int{H},
	})
	// The bias gradient reduces across rows, so it stays serial (row
	// order ascending, matching the unfused AddBias backward).
	gb := bias.ensureGrad()
	for r := 0; r < m; r++ {
		row := dpre[r*4*H : (r+1)*4*H]
		for j, gv := range row {
			gb[j] += gv
		}
	}
}

// kLSTMGatesVJP: S0=acts, S1=c, S2=tanh(c'), S3=dpre, S4=dPre accumulator
// (pre.Grad), S5=dC accumulator (c.Grad), S6=gh (h'.Grad, may be nil),
// S7=gc (c'.Grad, may be nil); I0=H. Partitioned over batch rows.
func kLSTMGatesVJP(r0, r1 int, ka KernelArgs) {
	acts, c, tanhC, dpre, gp, gcp, gh, gc := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4], ka.S[5], ka.S[6], ka.S[7]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		ar := acts[r*4*H : (r+1)*4*H]
		cr := c[r*H : (r+1)*H]
		tr := tanhC[r*H : (r+1)*H]
		dpr := dpre[r*4*H : (r+1)*4*H]
		gpr := gp[r*4*H : (r+1)*4*H]
		gcr := gcp[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			i, f, g, o := ar[j], ar[H+j], ar[2*H+j], ar[3*H+j]
			t := tr[j]
			var ghv, dc float32
			if gh != nil {
				ghv = gh[r*H+j]
			}
			if gc != nil {
				dc = gc[r*H+j]
			}
			do := ghv * t
			dtc := ghv * o
			dc = dc + dtc*(1-t*t)
			di := dc * g
			dg := dc * i
			df := dc * cr[j]
			gcr[j] += dc * f
			dpr[j] = di * i * (1 - i)
			dpr[H+j] = df * f * (1 - f)
			dpr[2*H+j] = dg * (1 - g*g)
			dpr[3*H+j] = do * o * (1 - o)
			gpr[j] += dpr[j]
			gpr[H+j] += dpr[H+j]
			gpr[2*H+j] += dpr[2*H+j]
			gpr[3*H+j] += dpr[3*H+j]
		}
	}
}

// GRUGates fuses the GRU update/reset gate block: given the joint gate
// pre-activation pre[m,2H] (update gate columns first), the gate bias[2H],
// and the previous hidden state h[m,H], it computes z = σ(pre_z + b_z),
// r = σ(pre_r + b_r), and the reset-scaled state r⊙h in one pass, returning
// (z, r⊙h). The reset activations are kept for the fused backward.
func GRUGates(tp *Tape, pre, bias, h *Tensor) (*Tensor, *Tensor) {
	m, H := h.Rows(), h.Cols()
	if pre.Rows() != m || pre.Cols() != 2*H || bias.Len() != 2*H {
		panic(fmt.Sprintf("tensor: GRUGates shape mismatch %v / %v / %v", pre.Shape, bias.Shape, h.Shape))
	}
	z := tp.alloc(m, H)
	rh := tp.alloc(m, H)
	rAct := tp.alloc(m, H)
	tp.parallel(m, m*2*H*ewTransc, kGRUGates, KernelArgs{
		S: [8][]float32{pre.Data, bias.Data, h.Data, z.Data, rAct.Data, rh.Data},
		I: [6]int{H},
	})
	tp.record(opRecord{kind: opGRUGates, a: pre, b: bias, c: h, out: z, out2: rh, s1: rAct})
	return z, rh
}

// kGRUGates: S0=pre, S1=bias, S2=h, S3=z, S4=rAct (nil on the forward-only
// path), S5=r⊙h; I0=H.
func kGRUGates(r0, r1 int, ka KernelArgs) {
	gruGates(r0, r1, ka.I[0], ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4], ka.S[5])
}

// gruGates is the GRU update/reset block over rows [r0, r1) of pre[m,2H]:
// it writes z and r⊙h, and the reset activations into rAct when non-nil.
//
//perfvec:hotpath
func gruGates[F float](r0, r1, H int, pre, bias, h, z, rAct, rh []F) {
	for r := r0; r < r1; r++ {
		pr := pre[r*2*H : (r+1)*2*H]
		hr := h[r*H : (r+1)*H]
		zr := z[r*H : (r+1)*H]
		rhr := rh[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			zv := sigmoid(pr[j] + bias[j])
			rv := sigmoid(pr[H+j] + bias[H+j])
			zr[j] = zv
			if rAct != nil {
				rAct[r*H+j] = rv
			}
			rhr[j] = rv * hr[j]
		}
	}
}

// vjpGRUGates: a=pre, b=bias, c=h, out=z, out2=r⊙h, s1=reset activations.
//
//perfvec:hotpath
func vjpGRUGates(tp *Tape, r *opRecord) {
	gz, grh := r.out.Grad, r.out2.Grad
	if gz == nil && grh == nil {
		return
	}
	pre, bias, h := r.a, r.b, r.c
	m, H := h.Rows(), h.Cols()
	dpre := tp.alloc(m, 2*H).Data // this op's pre-activation grads (see vjpLSTMGates)
	tp.parallel(m, m*2*H*4, kGRUGatesVJP, KernelArgs{
		S: [8][]float32{h.Data, r.out.Data, r.s1.Data, dpre, pre.ensureGrad(), h.ensureGrad(), gz, grh},
		I: [6]int{H},
	})
	gb := bias.ensureGrad()
	for r := 0; r < m; r++ {
		row := dpre[r*2*H : (r+1)*2*H]
		for j, gv := range row {
			gb[j] += gv
		}
	}
}

// kGRUGatesVJP: S0=h, S1=z, S2=rAct, S3=dpre, S4=dPre accumulator
// (pre.Grad), S5=dH accumulator (h.Grad), S6=gz (z.Grad, may be nil),
// S7=grh ((r⊙h).Grad, may be nil); I0=H.
func kGRUGatesVJP(r0, r1 int, ka KernelArgs) {
	h, z, rAct, dpre, gp, gh, gz, grh := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4], ka.S[5], ka.S[6], ka.S[7]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		hr := h[r*H : (r+1)*H]
		zr := z[r*H : (r+1)*H]
		rr := rAct[r*H : (r+1)*H]
		dpr := dpre[r*2*H : (r+1)*2*H]
		gpr := gp[r*2*H : (r+1)*2*H]
		ghr := gh[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			var dz, drh float32
			if gz != nil {
				dz = gz[r*H+j]
			}
			if grh != nil {
				drh = grh[r*H+j]
			}
			zv, rv := zr[j], rr[j]
			dr := drh * hr[j]
			ghr[j] += drh * rv
			dpr[j] = dz * zv * (1 - zv)
			dpr[H+j] = dr * rv * (1 - rv)
			gpr[j] += dpr[j]
			gpr[H+j] += dpr[H+j]
		}
	}
}

// GateCombine fuses the GRU candidate activation and state interpolation:
// n = tanh(nPre + bias) and h' = (n - z⊙n) + z⊙h — the "h' = n - z·n + z·h"
// form the unfused cell used — in one pass with a single fused record.
// The candidate activations are kept for backward.
func GateCombine(tp *Tape, z, nPre, bias, h *Tensor) *Tensor {
	m, H := h.Rows(), h.Cols()
	if z.Rows() != m || z.Cols() != H || nPre.Rows() != m || nPre.Cols() != H || bias.Len() != H {
		panic(fmt.Sprintf("tensor: GateCombine shape mismatch %v / %v / %v / %v", z.Shape, nPre.Shape, bias.Shape, h.Shape))
	}
	out := tp.alloc(m, H)
	nAct := tp.alloc(m, H)
	tp.parallel(m, m*H*ewTransc, kGateCombine, KernelArgs{
		S: [8][]float32{nPre.Data, bias.Data, z.Data, h.Data, nAct.Data, out.Data},
		I: [6]int{H},
	})
	tp.record(opRecord{kind: opGateCombine, a: z, b: nPre, c: bias, d: h, out: out, s1: nAct})
	return out
}

// kGateCombine: S0=nPre, S1=bias, S2=z, S3=h, S4=nAct (nil on the
// forward-only path), S5=out; I0=H.
func kGateCombine(r0, r1 int, ka KernelArgs) {
	gateCombine(r0, r1, ka.I[0], ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4], ka.S[5])
}

// gateCombine is h' = (n - z⊙n) + z⊙h with n = tanh(nPre + bias) over rows
// [r0, r1); the candidate activations n go to nAct when non-nil.
//
//perfvec:hotpath
func gateCombine[F float](r0, r1, H int, nPre, bias, z, h, nAct, out []F) {
	for r := r0; r < r1; r++ {
		pr := nPre[r*H : (r+1)*H]
		zr := z[r*H : (r+1)*H]
		hr := h[r*H : (r+1)*H]
		or := out[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			nv := tanh(pr[j] + bias[j])
			if nAct != nil {
				nAct[r*H+j] = nv
			}
			zv := zr[j]
			or[j] = (nv - zv*nv) + zv*hr[j]
		}
	}
}

// vjpGateCombine: a=z, b=nPre, c=bias, d=h, out, s1=candidate activations.
//
//perfvec:hotpath
func vjpGateCombine(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	z, nPre, bias, h := r.a, r.b, r.c, r.d
	m, H := h.Rows(), h.Cols()
	dpre := tp.alloc(m, H).Data // this op's candidate pre-activation grads
	tp.parallel(m, m*H*6, kGateCombineVJP, KernelArgs{
		S: [8][]float32{z.Data, h.Data, r.s1.Data, g, dpre, z.ensureGrad(), nPre.ensureGrad(), h.ensureGrad()},
		I: [6]int{H},
	})
	gb := bias.ensureGrad()
	for r := 0; r < m; r++ {
		row := dpre[r*H : (r+1)*H]
		for j, gv := range row {
			gb[j] += gv
		}
	}
}

// kGateCombineVJP: S0=z, S1=h, S2=nAct, S3=g (out.Grad), S4=dpre, S5=gz,
// S6=gn (nPre.Grad), S7=gh; I0=H.
func kGateCombineVJP(r0, r1 int, ka KernelArgs) {
	z, h, nAct, g, dpre, gz, gn, gh := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4], ka.S[5], ka.S[6], ka.S[7]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		zr := z[r*H : (r+1)*H]
		hr := h[r*H : (r+1)*H]
		nr := nAct[r*H : (r+1)*H]
		gr := g[r*H : (r+1)*H]
		dpr := dpre[r*H : (r+1)*H]
		gzr := gz[r*H : (r+1)*H]
		gnr := gn[r*H : (r+1)*H]
		ghr := gh[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			gv := gr[j]
			zv, nv := zr[j], nr[j]
			// Replays the unfused closure sequence exactly:
			// Mul(z,h): dz += g·h, dh += g·z; Sub: dn = g, dzn = -g;
			// Mul(z,n): dz += dzn·n, dn += dzn·z; Tanh epilogue.
			gzr[j] += gv * hr[j]
			ghr[j] += gv * zv
			dzn := -gv
			gzr[j] += dzn * nv
			dn := gv + dzn*zv
			dpr[j] = dn * (1 - nv*nv)
			gnr[j] += dpr[j]
		}
	}
}

// In-place epilogues. A Linear layer's bias broadcast and an MLP's hidden
// activation both consume an op output nothing else reads (the GEMM result),
// so they can run directly on that tensor's buffers: the forward mutates
// Data in place and the backward transforms (or harvests) the shared Grad
// buffer in place, eliminating one output tensor and one gradient buffer per
// application while leaving every float32 value — forward and backward —
// identical to the out-of-place composition. They must never be applied to
// parameters or to tensors that feed another op (an earlier op's backward
// that reads its *output* Data would observe the mutation).

// AddBiasInPlace adds bias[n] into each row of a[m,n] in place and returns a.
// The backward harvests the bias gradient (a serial cross-row reduction,
// like AddBias) and leaves a.Grad untouched: d(in) = d(out) exactly.
func AddBiasInPlace(tp *Tape, a, bias *Tensor) *Tensor {
	m, n := a.Rows(), a.Cols()
	if bias.Len() != n {
		panic(fmt.Sprintf("tensor: AddBiasInPlace bias length %d != cols %d", bias.Len(), n))
	}
	tp.parallel(m, m*n, kAddBias,
		KernelArgs{S: [8][]float32{a.Data, a.Data, bias.Data}, I: [6]int{n}})
	tp.record(opRecord{kind: opAddBiasInPlace, a: a, b: bias})
	return a
}

// vjpAddBiasInPlace: a, b=bias.
//
//perfvec:hotpath
func vjpAddBiasInPlace(tp *Tape, r *opRecord) {
	g := r.a.Grad
	if g == nil {
		return
	}
	m, n := r.a.Rows(), r.a.Cols()
	gb := r.b.ensureGrad()
	for i := 0; i < m; i++ {
		gr := g[i*n : (i+1)*n]
		for j, gv := range gr {
			gb[j] += gv
		}
	}
}

// SigmoidInPlace applies σ elementwise to a in place and returns a. The
// backward rewrites a.Grad in place (g ← g·y·(1-y)), so records earlier on
// the tape observe the pre-activation gradient.
func SigmoidInPlace(tp *Tape, a *Tensor) *Tensor {
	tp.parallel(len(a.Data), len(a.Data)*ewTransc, kSigmoid,
		KernelArgs{S: [8][]float32{a.Data, a.Data}})
	tp.record(opRecord{kind: opSigmoidInPlace, a: a})
	return a
}

// vjpSigmoidInPlace: a.
//
//perfvec:hotpath
func vjpSigmoidInPlace(tp *Tape, r *opRecord) {
	g := r.a.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kSigmoidInPlaceVJP,
		KernelArgs{S: [8][]float32{g, r.a.Data}})
}

// kSigmoidInPlaceVJP: S0=g (rewritten in place), S1=y (post-activation a).
func kSigmoidInPlaceVJP(s, e int, ka KernelArgs) {
	g, a := ka.S[0], ka.S[1]
	for i := s; i < e; i++ {
		y := a[i]
		g[i] = g[i] * y * (1 - y)
	}
}

// TanhInPlace applies tanh elementwise to a in place and returns a.
func TanhInPlace(tp *Tape, a *Tensor) *Tensor {
	tp.parallel(len(a.Data), len(a.Data)*ewTransc, kTanh,
		KernelArgs{S: [8][]float32{a.Data, a.Data}})
	tp.record(opRecord{kind: opTanhInPlace, a: a})
	return a
}

// vjpTanhInPlace: a.
//
//perfvec:hotpath
func vjpTanhInPlace(tp *Tape, r *opRecord) {
	g := r.a.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kTanhInPlaceVJP,
		KernelArgs{S: [8][]float32{g, r.a.Data}})
}

// kTanhInPlaceVJP: S0=g (rewritten in place), S1=y (post-activation a).
func kTanhInPlaceVJP(s, e int, ka KernelArgs) {
	g, a := ka.S[0], ka.S[1]
	for i := s; i < e; i++ {
		y := a[i]
		g[i] = g[i] * (1 - y*y)
	}
}

// ReLUInPlace applies max(·,0) elementwise to a in place and returns a. The
// output sign carries the mask (y > 0 ⟺ pre > 0), so no mask is stored.
func ReLUInPlace(tp *Tape, a *Tensor) *Tensor {
	tp.parallel(len(a.Data), len(a.Data), kReLU,
		KernelArgs{S: [8][]float32{a.Data, a.Data}})
	tp.record(opRecord{kind: opReLUInPlace, a: a})
	return a
}

// vjpReLUInPlace: a.
//
//perfvec:hotpath
func vjpReLUInPlace(tp *Tape, r *opRecord) {
	g := r.a.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kReLUInPlaceVJP,
		KernelArgs{S: [8][]float32{g, r.a.Data}})
}

// kReLUInPlaceVJP: S0=g (masked in place), S1=y (post-activation a).
func kReLUInPlaceVJP(s, e int, ka KernelArgs) {
	g, a := ka.S[0], ka.S[1]
	for i := s; i < e; i++ {
		if !(a[i] > 0) {
			g[i] = 0
		}
	}
}

// elemPtr is &s[i], or nil for a nil s: the vector kernel's form of an
// optional output.
//
//perfvec:hotpath
func elemPtr(s []float32, i int) *float32 {
	if s == nil {
		return nil
	}
	return &s[i]
}
