package tensor

import (
	"fmt"
	"math"
)

// Each op records a typed opRecord on the tape (see records.go) and has a
// matching vjp* function, kept adjacent to its forward pass, that the static
// VJP table dispatches during Backward. The VJP bodies replay the former
// backward closures' arithmetic verbatim: same expressions, same
// accumulation order, same chunking — gradients are bitwise identical to the
// closure tape's.
//
// Elementwise loops dispatch through ParallelKernel (by way of the tape's
// parallel, which keeps a serial tape's loops on its goroutine) as
// top-level k* kernel functions with by-value argument blocks (see
// parallel.go): a func literal
// handed to the pool escapes and costs one heap object per op invocation,
// and those closure objects were the step's dominant remaining allocation
// once tensors and records were pooled. Each kernel documents its KernelArgs
// slot layout. The work estimate is elements times per-element cost: 1 for
// arithmetic, ewTransc for transcendental functions (exp/tanh). Per-element
// gradient updates are independent, so chunked execution is race-free and
// bitwise-deterministic even when an op's two inputs alias the same tensor;
// ops that reduce across the partition axis in backward (AddBias, LayerNorm,
// Sum) keep those reductions serial.
const ewTransc = 16

// MatMul returns a[m,k] * b[k,n]. The backward pass accumulates
// dA += dC*B^T and dB += A^T*dC.
func MatMul(tp *Tape, a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := tp.alloc(m, n)
	gemmNN(tp, out.Data, a.Data, b.Data, m, k, n, k, n, n)
	tp.record(opRecord{kind: opMatMul, a: a, b: b, out: out})
	return out
}

// vjpMatMul: a, b, out.
//
//perfvec:hotpath
func vjpMatMul(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a, b := r.a, r.b
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	gemmNT(tp, a.ensureGrad(), g, b.Data, m, n, k, n, n, k)
	gemmTN(tp, b.ensureGrad(), a.Data, g, m, k, n, k, n, n)
}

// MatMulBT returns a[m,k] * b[n,k]^T, i.e. the rows of a dotted with the rows
// of b. This is the natural form for PerfVec's predictor, where each row of b
// is one microarchitecture representation.
func MatMulBT(tp *Tape, a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBT shape mismatch %v x %v^T", a.Shape, b.Shape))
	}
	out := tp.alloc(m, n)
	gemmNT(tp, out.Data, a.Data, b.Data, m, k, n, k, k, n)
	tp.record(opRecord{kind: opMatMulBT, a: a, b: b, out: out})
	return out
}

// vjpMatMulBT: a, b, out.
//
//perfvec:hotpath
func vjpMatMulBT(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a, b := r.a, r.b
	m, k := a.Rows(), a.Cols()
	n := b.Rows()
	// dA += dC * B ; dB += dC^T * A
	gemmNN(tp, a.ensureGrad(), g, b.Data, m, n, k, n, k, k)
	gemmTN(tp, b.ensureGrad(), g, a.Data, m, n, k, n, k, k)
}

// MatMulBTCat returns [x|h] * w^T without materializing the column
// concatenation of x[m,xc] and h[m,hc]: w[n, xc+hc] is treated as two column
// blocks and the leading-dimension-aware kernels run directly on the
// sub-views. This is the hot op of the recurrent cells (GRU/LSTM), where the
// seed built a fresh ConcatCols tensor every timestep of every layer.
func MatMulBTCat(tp *Tape, x, h, w *Tensor) *Tensor {
	m, xc := x.Rows(), x.Cols()
	hc := h.Cols()
	n, wc := w.Rows(), w.Cols()
	if h.Rows() != m || wc != xc+hc {
		panic(fmt.Sprintf("tensor: MatMulBTCat shape mismatch [%v|%v] x %v^T", x.Shape, h.Shape, w.Shape))
	}
	out := tp.alloc(m, n)
	gemmNT(tp, out.Data, x.Data, w.Data, m, xc, n, xc, wc, n)
	gemmNT(tp, out.Data, h.Data, w.Data[xc:], m, hc, n, hc, wc, n)
	tp.record(opRecord{kind: opMatMulBTCat, a: x, b: h, c: w, out: out})
	return out
}

// vjpMatMulBTCat: a=x, b=h, c=w, out.
//
//perfvec:hotpath
func vjpMatMulBTCat(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	x, h, w := r.a, r.b, r.c
	m, xc := x.Rows(), x.Cols()
	hc := h.Cols()
	n, wc := w.Rows(), w.Cols()
	gx, gh, gw := x.ensureGrad(), h.ensureGrad(), w.ensureGrad()
	// dX += dC * W[:, :xc] ; dH += dC * W[:, xc:]
	gemmNN(tp, gx, g, w.Data, m, n, xc, n, wc, xc)
	gemmNN(tp, gh, g, w.Data[xc:], m, n, hc, n, wc, hc)
	// dW[:, :xc] += dC^T * X ; dW[:, xc:] += dC^T * H
	gemmTN(tp, gw, g, x.Data, m, n, xc, n, xc, wc)
	gemmTN(tp, gw[xc:], g, h.Data, m, n, hc, n, hc, wc)
}

// MatMulBTCols returns a[:, from:to] * b[:, from:to]^T without materializing
// the column slices; gradients flow back into the corresponding columns of a
// and b. This is the attention-score form: per-head Q*K^T on column
// sub-ranges of the full projections.
func MatMulBTCols(tp *Tape, a, b *Tensor, from, to int) *Tensor {
	m, ac := a.Rows(), a.Cols()
	n, bc := b.Rows(), b.Cols()
	if from < 0 || to > ac || to > bc || from >= to {
		panic(fmt.Sprintf("tensor: MatMulBTCols [%d,%d) out of range for %v x %v^T", from, to, a.Shape, b.Shape))
	}
	w := to - from
	out := tp.alloc(m, n)
	gemmNT(tp, out.Data, a.Data[from:], b.Data[from:], m, w, n, ac, bc, n)
	tp.record(opRecord{kind: opMatMulBTCols, a: a, b: b, out: out, i0: from, i1: to})
	return out
}

// vjpMatMulBTCols: a, b, out; i0=from, i1=to.
//
//perfvec:hotpath
func vjpMatMulBTCols(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a, b, from := r.a, r.b, r.i0
	m, ac := a.Rows(), a.Cols()
	n, bc := b.Rows(), b.Cols()
	w := r.i1 - from
	ga, gb := a.ensureGrad(), b.ensureGrad()
	gemmNN(tp, ga[from:], g, b.Data[from:], m, n, w, n, bc, ac)
	gemmTN(tp, gb[from:], g, a.Data[from:], m, n, w, n, ac, bc)
}

// AttentionValue writes att[m,n] * v[:, from:to] into columns [from, to) of
// dst[m, *] — one attention head's output, packed into the heads' shared
// output matrix without materializing either column block. dst's columns
// [from, to) must be zero on entry (the graph hands it a fresh Zeros
// matrix). The backward pass accumulates dAtt += dDst[:, from:to] *
// v[:, from:to]^T and dV[:, from:to] += att^T * dDst[:, from:to]. It is
// the recorded twin of AttentionValue32.
func AttentionValue(tp *Tape, dst, att, v *Tensor, from, to int) {
	m, n, vc, dc := att.Rows(), att.Cols(), v.Cols(), dst.Cols()
	if from < 0 || to > vc || to > dc || from >= to || n != v.Rows() || dst.Rows() != m {
		panic(fmt.Sprintf("tensor: AttentionValue [%d,%d) out of range for %v x %v into %v", from, to, att.Shape, v.Shape, dst.Shape))
	}
	gemmNN(tp, dst.Data[from:], att.Data, v.Data[from:], m, n, to-from, n, vc, dc)
	tp.record(opRecord{kind: opAttentionValue, a: att, b: v, out: dst, i0: from, i1: to})
}

// vjpAttentionValue: a=att, b=v, out=dst; i0=from, i1=to.
//
//perfvec:hotpath
func vjpAttentionValue(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	att, v, from := r.a, r.b, r.i0
	m, n, vc, dc := att.Rows(), att.Cols(), v.Cols(), r.out.Cols()
	w := r.i1 - from
	gemmNT(tp, att.ensureGrad(), g[from:], v.Data[from:], m, w, n, dc, vc, n)
	gemmTN(tp, v.ensureGrad()[from:], att.Data, g[from:], m, n, w, n, dc, vc)
}

// Add returns a + b for tensors of identical shape.
func Add(tp *Tape, a, b *Tensor) *Tensor {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := tp.alloc(a.Shape...)
	tp.parallel(len(out.Data), len(out.Data), kAdd,
		KernelArgs{S: [8][]float32{out.Data, a.Data, b.Data}})
	tp.record(opRecord{kind: opAdd, a: a, b: b, out: out})
	return out
}

// kAdd: S0=out, S1=a, S2=b.
func kAdd(s, e int, ka KernelArgs) { add(ka.S[0][s:e], ka.S[1][s:e], ka.S[2][s:e]) }

// add writes a + b into out.
//
//perfvec:hotpath
func add[F float](out, a, b []F) {
	for i, v := range a {
		out[i] = v + b[i]
	}
}

// vjpAdd: a, b, out.
//
//perfvec:hotpath
func vjpAdd(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kAddVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad(), r.b.ensureGrad()}})
}

// kAddVJP: S0=g, S1=ga, S2=gb.
func kAddVJP(s, e int, ka KernelArgs) {
	g, ga, gb := ka.S[0], ka.S[1], ka.S[2]
	for i := s; i < e; i++ {
		ga[i] += g[i]
		gb[i] += g[i]
	}
}

// AddBias returns a[m,n] + bias[n] broadcast across rows.
func AddBias(tp *Tape, a, bias *Tensor) *Tensor {
	m, n := a.Rows(), a.Cols()
	if bias.Len() != n {
		panic(fmt.Sprintf("tensor: AddBias bias length %d != cols %d", bias.Len(), n))
	}
	out := tp.alloc(m, n)
	tp.parallel(m, m*n, kAddBias,
		KernelArgs{S: [8][]float32{out.Data, a.Data, bias.Data}, I: [6]int{n}})
	tp.record(opRecord{kind: opAddBias, a: a, b: bias, out: out})
	return out
}

// kAddBias: S0=out, S1=a (the same slice for the in-place form), S2=bias;
// I0=n. Partitioned over rows.
func kAddBias(r0, r1 int, ka KernelArgs) {
	addBias(r0, r1, ka.I[0], ka.S[0], ka.S[1], ka.S[2])
}

// addBias writes rows [r0, r1) of a[m,n] plus bias[n] into out.
//
//perfvec:hotpath
func addBias[F float](r0, r1, n int, out, a, bias []F) {
	for i := r0; i < r1; i++ {
		ar, or := a[i*n:(i+1)*n], out[i*n:(i+1)*n]
		for j, av := range ar {
			or[j] = av + bias[j]
		}
	}
}

// vjpAddBias: a, b=bias, out.
//
//perfvec:hotpath
func vjpAddBias(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a := r.a
	m, n := a.Rows(), a.Cols()
	// gb reduces across rows, so the backward stays serial.
	ga, gb := a.ensureGrad(), r.b.ensureGrad()
	for i := 0; i < m; i++ {
		gr := g[i*n : (i+1)*n]
		gar := ga[i*n : (i+1)*n]
		for j, gv := range gr {
			gar[j] += gv
			gb[j] += gv
		}
	}
}

// Sub returns a - b for tensors of identical shape.
func Sub(tp *Tape, a, b *Tensor) *Tensor {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := tp.alloc(a.Shape...)
	tp.parallel(len(out.Data), len(out.Data), kSub,
		KernelArgs{S: [8][]float32{out.Data, a.Data, b.Data}})
	tp.record(opRecord{kind: opSub, a: a, b: b, out: out})
	return out
}

// kSub: S0=out, S1=a, S2=b.
func kSub(s, e int, ka KernelArgs) {
	out, a, b := ka.S[0], ka.S[1], ka.S[2]
	for i := s; i < e; i++ {
		out[i] = a[i] - b[i]
	}
}

// vjpSub: a, b, out.
//
//perfvec:hotpath
func vjpSub(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kSubVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad(), r.b.ensureGrad()}})
}

// kSubVJP: S0=g, S1=ga, S2=gb.
func kSubVJP(s, e int, ka KernelArgs) {
	g, ga, gb := ka.S[0], ka.S[1], ka.S[2]
	for i := s; i < e; i++ {
		ga[i] += g[i]
		gb[i] -= g[i]
	}
}

// Mul returns the elementwise (Hadamard) product of a and b.
func Mul(tp *Tape, a, b *Tensor) *Tensor {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := tp.alloc(a.Shape...)
	tp.parallel(len(out.Data), len(out.Data), kMul,
		KernelArgs{S: [8][]float32{out.Data, a.Data, b.Data}})
	tp.record(opRecord{kind: opMul, a: a, b: b, out: out})
	return out
}

// kMul: S0=out, S1=a, S2=b.
func kMul(s, e int, ka KernelArgs) {
	out, a, b := ka.S[0], ka.S[1], ka.S[2]
	for i := s; i < e; i++ {
		out[i] = a[i] * b[i]
	}
}

// vjpMul: a, b, out.
//
//perfvec:hotpath
func vjpMul(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a, b := r.a, r.b
	tp.parallel(len(g), len(g), kMulVJP,
		KernelArgs{S: [8][]float32{g, a.ensureGrad(), b.ensureGrad(), a.Data, b.Data}})
}

// kMulVJP: S0=g, S1=ga, S2=gb, S3=a, S4=b.
func kMulVJP(s, e int, ka KernelArgs) {
	g, ga, gb, a, b := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
	for i := s; i < e; i++ {
		ga[i] += g[i] * b[i]
		gb[i] += g[i] * a[i]
	}
}

// Scale returns s * a.
func Scale(tp *Tape, a *Tensor, s float32) *Tensor {
	out := tp.alloc(a.Shape...)
	tp.parallel(len(out.Data), len(out.Data), kScale,
		KernelArgs{S: [8][]float32{out.Data, a.Data}, F: [6]float32{s}})
	tp.record(opRecord{kind: opScale, a: a, out: out, f0: s})
	return out
}

// kScale: S0=out, S1=a; F0=s.
func kScale(s, e int, ka KernelArgs) {
	out, a := ka.S[0], ka.S[1]
	f := ka.F[0]
	for i := s; i < e; i++ {
		out[i] = a[i] * f
	}
}

// vjpScale: a, out; f0=s.
//
//perfvec:hotpath
func vjpScale(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kScaleVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad()}, F: [6]float32{r.f0}})
}

// kScaleVJP: S0=g, S1=ga; F0=s.
func kScaleVJP(s, e int, ka KernelArgs) {
	g, ga := ka.S[0], ka.S[1]
	f := ka.F[0]
	for i := s; i < e; i++ {
		ga[i] += g[i] * f
	}
}

// Sigmoid returns 1/(1+exp(-a)) elementwise. No model calls it; it stays as
// the unfused reference the fused gate kernels (lstmStepUnfused and
// gruStepUnfused in gates_test.go) and SigmoidInPlace are pinned against.
func Sigmoid(tp *Tape, a *Tensor) *Tensor {
	out := tp.alloc(a.Shape...)
	tp.parallel(len(out.Data), len(out.Data)*ewTransc, kSigmoid,
		KernelArgs{S: [8][]float32{out.Data, a.Data}})
	tp.record(opRecord{kind: opSigmoid, a: a, out: out})
	return out
}

// kSigmoid: S0=out, S1=a (the same slice for the in-place form).
func kSigmoid(s, e int, ka KernelArgs) { sigmoidEach(ka.S[0][s:e], ka.S[1][s:e]) }

// sigmoidEach writes σ(a) into out.
//
//perfvec:hotpath
func sigmoidEach[F float](out, a []F) {
	for i, v := range a {
		out[i] = sigmoid(v)
	}
}

// vjpSigmoid: a, out.
//
//perfvec:hotpath
func vjpSigmoid(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kSigmoidVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad(), r.out.Data}})
}

// kSigmoidVJP: S0=g, S1=ga, S2=y (the op's output).
func kSigmoidVJP(s, e int, ka KernelArgs) {
	g, ga, out := ka.S[0], ka.S[1], ka.S[2]
	for i := s; i < e; i++ {
		y := out[i]
		ga[i] += g[i] * y * (1 - y)
	}
}

// Tanh returns tanh(a) elementwise. No model calls it; it stays as the
// unfused reference of the gate kernels and TanhInPlace (gates_test.go).
func Tanh(tp *Tape, a *Tensor) *Tensor {
	out := tp.alloc(a.Shape...)
	tp.parallel(len(out.Data), len(out.Data)*ewTransc, kTanh,
		KernelArgs{S: [8][]float32{out.Data, a.Data}})
	tp.record(opRecord{kind: opTanh, a: a, out: out})
	return out
}

// kTanh: S0=out, S1=a (the same slice for the in-place form).
func kTanh(s, e int, ka KernelArgs) { tanhEach(ka.S[0][s:e], ka.S[1][s:e]) }

// tanhEach writes tanh(a) into out.
//
//perfvec:hotpath
func tanhEach[F float](out, a []F) {
	for i, v := range a {
		out[i] = tanh(v)
	}
}

// vjpTanh: a, out.
//
//perfvec:hotpath
func vjpTanh(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kTanhVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad(), r.out.Data}})
}

// kTanhVJP: S0=g, S1=ga, S2=y (the op's output).
func kTanhVJP(s, e int, ka KernelArgs) {
	g, ga, out := ka.S[0], ka.S[1], ka.S[2]
	for i := s; i < e; i++ {
		y := out[i]
		ga[i] += g[i] * (1 - y*y)
	}
}

// ReLU returns max(a, 0) elementwise. No model calls it; it stays as the
// out-of-place reference ReLUInPlace is pinned against
// (TestInPlaceEpiloguesBitwise).
func ReLU(tp *Tape, a *Tensor) *Tensor {
	out := tp.alloc(a.Shape...)
	tp.parallel(len(out.Data), len(out.Data), kReLU,
		KernelArgs{S: [8][]float32{out.Data, a.Data}})
	tp.record(opRecord{kind: opReLU, a: a, out: out})
	return out
}

// kReLU: S0=out, S1=a (the same slice for the in-place form).
func kReLU(s, e int, ka KernelArgs) { reluEach(ka.S[0][s:e], ka.S[1][s:e]) }

// reluEach writes max(a, 0) into out; NaN maps to +0.
//
//perfvec:hotpath
func reluEach[F float](out, a []F) {
	for i, v := range a {
		if !(v > 0) {
			v = 0
		}
		out[i] = v
	}
}

// vjpReLU: a, out.
//
//perfvec:hotpath
func vjpReLU(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	tp.parallel(len(g), len(g), kReLUVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad(), r.a.Data}})
}

// kReLUVJP: S0=g, S1=ga, S2=a (the op's input).
func kReLUVJP(s, e int, ka KernelArgs) {
	g, ga, a := ka.S[0], ka.S[1], ka.S[2]
	for i := s; i < e; i++ {
		if a[i] > 0 {
			ga[i] += g[i]
		}
	}
}

// SoftmaxRows applies a numerically-stable softmax independently to each row.
func SoftmaxRows(tp *Tape, a *Tensor) *Tensor {
	m, n := a.Rows(), a.Cols()
	out := tp.alloc(m, n)
	tp.parallel(m, m*n*ewTransc, kSoftmaxRows,
		KernelArgs{S: [8][]float32{out.Data, a.Data}, I: [6]int{n}, F: [6]float32{1}})
	tp.record(opRecord{kind: opSoftmaxRows, a: a, out: out})
	return out
}

// kSoftmaxRows: S0=out, S1=a; I0=n; F0=pre-softmax scale (1 for the plain
// op). Partitioned over rows.
func kSoftmaxRows(r0, r1 int, ka KernelArgs) {
	softmaxRows(r0, r1, ka.I[0], ka.S[0], ka.S[1], ka.F[0])
}

// softmaxRows writes the max-subtracted softmax of scale*a over rows
// [r0, r1) of a[m,n] into out, with the exponentials and their sum in
// float64. With scale == 1 the scale multiplications are exact identities
// (x*1 == x bitwise for every float, including NaN payloads and signed
// zeros), so the plain softmax and the fused attention form share this
// kernel without perturbing the plain op's values.
//
//perfvec:hotpath
func softmaxRows[F float](r0, r1, n int, out, a []F, scale F) {
	for i := r0; i < r1; i++ {
		ar, or := a[i*n:(i+1)*n], out[i*n:(i+1)*n]
		maxv := ar[0] * scale
		for _, v := range ar[1:] {
			if sv := v * scale; sv > maxv {
				maxv = sv
			}
		}
		var sum float64
		for j, v := range ar {
			e := math.Exp(float64(v*scale - maxv))
			or[j] = F(e)
			sum += e
		}
		inv := F(1 / sum)
		for j := range or {
			or[j] *= inv
		}
	}
}

// vjpSoftmaxRows: a, out.
//
//perfvec:hotpath
func vjpSoftmaxRows(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	m, n := r.out.Rows(), r.out.Cols()
	tp.parallel(m, m*n, kSoftmaxRowsVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad(), r.out.Data}, I: [6]int{n}, F: [6]float32{1}})
}

// kSoftmaxRowsVJP: S0=g, S1=ga, S2=y (softmax output); I0=n; F0=post-VJP
// scale (1 for the plain op; see kSoftmaxRows).
func kSoftmaxRowsVJP(r0, r1 int, ka KernelArgs) {
	g, ga, out := ka.S[0], ka.S[1], ka.S[2]
	n := ka.I[0]
	scale := ka.F[0]
	for i := r0; i < r1; i++ {
		gr := g[i*n : (i+1)*n]
		or := out[i*n : (i+1)*n]
		gar := ga[i*n : (i+1)*n]
		var dot float32
		for j, gv := range gr {
			dot += gv * or[j]
		}
		for j, gv := range gr {
			gar[j] += (or[j] * (gv - dot)) * scale
		}
	}
}

// AttentionSoftmax returns softmax_rows(scale * a) as one fused record: the
// attention-score normalization (1/sqrt(d_k) scaling plus row softmax) that
// the transformer encoder previously recorded as a Scale node feeding a
// SoftmaxRows node, per head per sample. Like the fused gate kernels, the
// fusion is numerically invisible: the forward replays Scale's float32
// products (each a[i]*scale rounds once, exactly like the materialized
// scaled tensor's elements) before the identical softmax passes, and the
// backward composes the softmax VJP and the scale VJP with the same
// intermediate roundings the two separate ops produced — so outputs and all
// gradients are bitwise identical to SoftmaxRows(Scale(a)) while saving one
// [T,T] tensor, its gradient buffer, and one record per attention head.
func AttentionSoftmax(tp *Tape, a *Tensor, scale float32) *Tensor {
	m, n := a.Rows(), a.Cols()
	out := tp.alloc(m, n)
	tp.parallel(m, m*n*ewTransc, kSoftmaxRows,
		KernelArgs{S: [8][]float32{out.Data, a.Data}, I: [6]int{n}, F: [6]float32{scale}})
	tp.record(opRecord{kind: opAttentionSoftmax, a: a, out: out, f0: scale})
	return out
}

// vjpAttentionSoftmax: a, out; f0=scale. The softmax VJP's per-element
// product rounds to float32 before the scale factor multiplies it — the
// exact sequence the unfused SoftmaxRows-then-Scale backward performed.
//
//perfvec:hotpath
func vjpAttentionSoftmax(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	m, n := r.out.Rows(), r.out.Cols()
	tp.parallel(m, m*n, kSoftmaxRowsVJP,
		KernelArgs{S: [8][]float32{g, r.a.ensureGrad(), r.out.Data}, I: [6]int{n}, F: [6]float32{r.f0}})
}

// ConcatCols concatenates matrices a[m,na] and b[m,nb] along columns.
func ConcatCols(tp *Tape, a, b *Tensor) *Tensor {
	m, na, nb := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != m {
		panic(fmt.Sprintf("tensor: ConcatCols row mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := tp.alloc(m, na+nb)
	concatCols(out.Data, a.Data, b.Data, m, na, nb)
	tp.record(opRecord{kind: opConcatCols, a: a, b: b, out: out})
	return out
}

// vjpConcatCols: a, b, out.
//
//perfvec:hotpath
func vjpConcatCols(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a, b := r.a, r.b
	m, na, nb := a.Rows(), a.Cols(), b.Cols()
	ga, gb := a.ensureGrad(), b.ensureGrad()
	for i := 0; i < m; i++ {
		gr := g[i*(na+nb) : (i+1)*(na+nb)]
		gar := ga[i*na : (i+1)*na]
		gbr := gb[i*nb : (i+1)*nb]
		for j := 0; j < na; j++ {
			gar[j] += gr[j]
		}
		for j := 0; j < nb; j++ {
			gbr[j] += gr[na+j]
		}
	}
}

// SliceCols returns columns [from, to) of matrix a as a new tensor whose
// gradient flows back into the corresponding columns of a.
func SliceCols(tp *Tape, a *Tensor, from, to int) *Tensor {
	m, n := a.Rows(), a.Cols()
	if from < 0 || to > n || from >= to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) out of range for %v", from, to, a.Shape))
	}
	w := to - from
	out := tp.alloc(m, w)
	for i := 0; i < m; i++ {
		copy(out.Data[i*w:(i+1)*w], a.Data[i*n+from:i*n+to])
	}
	tp.record(opRecord{kind: opSliceCols, a: a, out: out, i0: from, i1: to})
	return out
}

// vjpSliceCols: a, out; i0=from, i1=to.
//
//perfvec:hotpath
func vjpSliceCols(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a, from, to := r.a, r.i0, r.i1
	m, n := a.Rows(), a.Cols()
	w := to - from
	ga := a.ensureGrad()
	for i := 0; i < m; i++ {
		gr := g[i*w : (i+1)*w]
		gar := ga[i*n+from : i*n+to]
		for j, gv := range gr {
			gar[j] += gv
		}
	}
}

// SliceRows returns rows [from, to) of matrix a as a new tensor whose
// gradient flows back into the corresponding rows of a.
func SliceRows(tp *Tape, a *Tensor, from, to int) *Tensor {
	m, n := a.Rows(), a.Cols()
	if from < 0 || to > m || from >= to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for %v", from, to, a.Shape))
	}
	h := to - from
	out := tp.alloc(h, n)
	copy(out.Data, a.Data[from*n:to*n])
	tp.record(opRecord{kind: opSliceRows, a: a, out: out, i0: from, i1: to})
	return out
}

// vjpSliceRows: a, out; i0=from.
//
//perfvec:hotpath
func vjpSliceRows(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a, from := r.a, r.i0
	n := a.Cols()
	ga := a.ensureGrad()
	for i, gv := range g {
		ga[from*n+i] += gv
	}
}

// Transpose returns a[m,n]^T as an [n,m] tensor. No model calls it; it
// stays as the explicit reference of the transposed GEMMs
// (TestMatMulBTMatchesExplicitTranspose).
func Transpose(tp *Tape, a *Tensor) *Tensor {
	m, n := a.Rows(), a.Cols()
	out := tp.alloc(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	tp.record(opRecord{kind: opTranspose, a: a, out: out})
	return out
}

// vjpTranspose: a, out.
//
//perfvec:hotpath
func vjpTranspose(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	a := r.a
	m, n := a.Rows(), a.Cols()
	ga := a.ensureGrad()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ga[i*n+j] += g[j*m+i]
		}
	}
}

// Sum reduces all elements to a scalar tensor.
func Sum(tp *Tape, a *Tensor) *Tensor {
	out := tp.alloc(1)
	var s float64
	for _, v := range a.Data {
		s += float64(v)
	}
	out.Data[0] = float32(s)
	tp.record(opRecord{kind: opSum, a: a, out: out})
	return out
}

// vjpSum: a, out.
//
//perfvec:hotpath
func vjpSum(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	ga := r.a.ensureGrad()
	gv := g[0]
	for i := range ga {
		ga[i] += gv
	}
}

// Mean reduces all elements to their scalar average.
func Mean(tp *Tape, a *Tensor) *Tensor {
	n := float32(a.Len())
	s := Sum(tp, a)
	return Scale(tp, s, 1/n)
}

// LayerNorm normalizes each row of x to zero mean and unit variance, then
// applies the learned per-column gain and bias: gamma * xhat + beta.
func LayerNorm(tp *Tape, x, gamma, beta *Tensor, eps float32) *Tensor {
	m, n := x.Rows(), x.Cols()
	if gamma.Len() != n || beta.Len() != n {
		panic("tensor: LayerNorm gain/bias length mismatch")
	}
	out := tp.alloc(m, n)
	// Scratch lives on the tape arena too: the VJP needs the normalized
	// activations and per-row scales, so they are step-lifetime.
	xhat := tp.alloc(m, n)
	invStd := tp.alloc(m)
	tp.parallel(m, m*n*4, kLayerNorm, KernelArgs{
		S: [8][]float32{out.Data, x.Data, gamma.Data, beta.Data, xhat.Data, invStd.Data},
		I: [6]int{n},
		F: [6]float32{eps},
	})
	tp.record(opRecord{kind: opLayerNorm, a: x, b: gamma, c: beta, out: out, s1: xhat, s2: invStd})
	return out
}

// kLayerNorm: S0=out, S1=x, S2=gamma, S3=beta, S4=xhat, S5=invStd (S4/S5
// nil on the forward-only path); I0=n; F0=eps. Partitioned over rows.
//
//perfvec:hotpath
func kLayerNorm(r0, r1 int, ka KernelArgs) {
	out, x, gamma, beta, xhat, invStd := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4], ka.S[5]
	n := ka.I[0]
	for i := r0; i < r1; i++ {
		xr := x[i*n : (i+1)*n]
		mean, is64 := meanInvStd(xr, ka.F[0])
		is := float32(is64)
		if invStd != nil {
			invStd[i] = is
		}
		for j, v := range xr {
			h := (v - float32(mean)) * is
			if xhat != nil {
				xhat[i*n+j] = h
			}
			out[i*n+j] = gamma[j]*h + beta[j]
		}
	}
}

// meanInvStd returns the mean of x and 1/sqrt(var(x) + eps), both
// accumulated in float64 — the row statistics of LayerNorm at either width.
//
//perfvec:hotpath
func meanInvStd[F float](x []F, eps F) (mean, invStd float64) {
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(len(x))
	var varc float64
	for _, v := range x {
		d := float64(v) - mean
		varc += d * d
	}
	varc /= float64(len(x))
	return mean, 1 / math.Sqrt(varc+float64(eps))
}

// vjpLayerNorm: a=x, b=gamma, c=beta, out, s1=xhat, s2=invStd. The backward
// stays serial: gg/gb reduce across rows.
//
//perfvec:hotpath
func vjpLayerNorm(tp *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	x, gamma := r.a, r.b
	m, n := x.Rows(), x.Cols()
	xhat, invStd := r.s1.Data, r.s2.Data
	gx, gg, gb := x.ensureGrad(), gamma.ensureGrad(), r.c.ensureGrad()
	dh := tp.alloc(n).Data // one scratch row per backward, not per row
	for i := 0; i < m; i++ {
		gr := g[i*n : (i+1)*n]
		hr := xhat[i*n : (i+1)*n]
		// dxhat = g * gamma; accumulate gamma/beta grads.
		var sumDh, sumDhH float32
		for j, gv := range gr {
			gg[j] += gv * hr[j]
			gb[j] += gv
			d := gv * gamma.Data[j]
			dh[j] = d
			sumDh += d
			sumDhH += d * hr[j]
		}
		is := invStd[i]
		nf := float32(n)
		gxr := gx[i*n : (i+1)*n]
		for j := range dh {
			gxr[j] += (is / nf) * (nf*dh[j] - sumDh - hr[j]*sumDhH)
		}
	}
}
