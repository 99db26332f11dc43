package nn

import (
	"repro/internal/tensor"
)

// Float64 forward oracle. NewOracle64 widens a trained float32 model's
// parameters to float64 once (widening is exact, so the oracle sees
// bit-for-bit the same parameters) and runs the one graph (infer.go) on
// f64Ops, whose ops (tensor/infer64.go) compute every GEMM accumulation,
// transcendental, and reduction directly in float64. The epsilon drift
// harnesses and the tier error ledger hold the float32 and int8 serving
// tiers against this oracle; it is a reference, not a serving tier
// (perfvec.Foundation.EncodePrograms64 runs it). Its independence is in its
// arithmetic, not its wiring or its kernel source: the drift pins compare
// backends running one graph over the same row kernels at two widths,
// TestGraphGolden guards the graph's wiring, and the tensor package's
// TestOracleOpsMatchFormulas holds each float64 op to its formula. The oracle
// assumes the source model's weights are frozen after construction; it
// allocates freely (it is the reference, not a hot path).

// Oracle64 is a float64 forward-only image of a SeqEncoder.
type Oracle64 struct {
	enc SeqEncoder
	ops f64Ops
}

// NewOracle64 widens the parameters of enc — and of any extra layers the
// caller runs through Linear, such as a projection head — into a float64
// oracle. Every SeqEncoder in this package is supported.
func NewOracle64(enc SeqEncoder, layers ...*Linear) *Oracle64 {
	o := &Oracle64{enc: enc, ops: f64Ops{w: map[*tensor.Tensor]tensor.Tensor64{}}}
	params := enc.Params()
	for _, l := range layers {
		params = append(params, l.Params()...)
	}
	for _, p := range params {
		o.ops.w[p] = tensor.Widen(p)
	}
	return o
}

// ForwardWindows encodes the float64 window batch x.
func (o *Oracle64) ForwardWindows(x Windows[tensor.Tensor64]) tensor.Tensor64 {
	return inferSeq[tensor.Tensor64](o.ops, o.enc, x)
}

// Linear applies l, one of the layers passed to NewOracle64, in float64.
func (o *Oracle64) Linear(l *Linear, x tensor.Tensor64) tensor.Tensor64 {
	return inferLinear[tensor.Tensor64, windows64](o.ops, l, x)
}

// OutDim reports the width of the encoding.
func (o *Oracle64) OutDim() int { return o.enc.OutDim() }

// f64Ops is the float64 inference backend. w holds the widened parameters;
// a tensor outside it (the transformer's fixed positional encodings) is
// widened on use — exactly, so the result is the same either way.
type f64Ops struct {
	w map[*tensor.Tensor]tensor.Tensor64
}

// p returns the float64 image of a parameter.
func (o f64Ops) p(t *tensor.Tensor) tensor.Tensor64 {
	if w, ok := o.w[t]; ok {
		return w
	}
	return tensor.Widen(t)
}

func (o f64Ops) mat(r, c int) tensor.Tensor64 { return tensor.NewTensor64(r, c) }

func (o f64Ops) mats(n int) []tensor.Tensor64 { return make([]tensor.Tensor64, n) }

func (o f64Ops) concat(a, b tensor.Tensor64) tensor.Tensor64 { return tensor.ConcatCols64(a, b) }

func (o f64Ops) stack(xs []tensor.Tensor64, row int) tensor.Tensor64 {
	return tensor.StackRows64(xs, row)
}

func (o f64Ops) scores(q, k tensor.Tensor64, from, to int) tensor.Tensor64 {
	return tensor.MatMulBTCols64(q, k, from, to)
}

func (o f64Ops) attentionValue(dst, att, v tensor.Tensor64, from, to int) {
	tensor.AttentionValue64(dst, att, v, from, to)
}

func (o f64Ops) add(a, b tensor.Tensor64) tensor.Tensor64 { return tensor.Add64(a, b) }

func (o f64Ops) addBias(x tensor.Tensor64, b *tensor.Tensor) tensor.Tensor64 {
	return tensor.AddBiasInPlace64(x, o.p(b).Data)
}

func (o f64Ops) layerNorm(x tensor.Tensor64, g, b *tensor.Tensor) tensor.Tensor64 {
	return tensor.LayerNorm64(x, o.p(g).Data, o.p(b).Data, lnEps)
}

func (o f64Ops) relu(x tensor.Tensor64) tensor.Tensor64 { return tensor.ReLUInPlace64(x) }

func (o f64Ops) linear(x tensor.Tensor64, w, b *tensor.Tensor) tensor.Tensor64 {
	y := tensor.MatMulBT64(x, o.p(w))
	if b != nil {
		y = o.addBias(y, b)
	}
	return y
}

func (o f64Ops) linearCat(x, h tensor.Tensor64, w *tensor.Tensor) tensor.Tensor64 {
	return tensor.MatMulBTCat64(x, h, o.p(w))
}

// windows64 is the oracle's input form.
type windows64 = Windows[tensor.Tensor64]

func (o f64Ops) window(x windows64) (int, int) { return len(x.Start), x.Len }

func (o f64Ops) project(x windows64, w, b *tensor.Tensor) windows64 {
	p := tensor.NewTensor64(x.Rows.R, w.Rows())
	tensor.MatMulBTPart64(p, x.Rows, o.p(w), 0)
	if b != nil {
		p = o.addBias(p, b)
	}
	return windows64{Rows: p, Start: x.Start, Len: x.Len}
}

func (o f64Ops) step(p windows64, t int) tensor.Tensor64 {
	out := tensor.NewTensor64(len(p.Start), p.Rows.C)
	tensor.GatherRows64(out, p.Rows, p.Start, t)
	return out
}

func (o f64Ops) stepCat(p windows64, t int, h tensor.Tensor64, w *tensor.Tensor) tensor.Tensor64 {
	pre := o.step(p, t)
	tensor.MatMulBTPart64(pre, h, o.p(w), w.Cols()-h.C)
	return pre
}

func (o f64Ops) flattenWindows(x windows64) tensor.Tensor64 {
	out := tensor.NewTensor64(len(x.Start), x.Len*x.Rows.C)
	tensor.GatherRows64(out, x.Rows, x.Start, 0)
	return out
}

func (o f64Ops) lstmGates(pre tensor.Tensor64, b *tensor.Tensor, c tensor.Tensor64) (tensor.Tensor64, tensor.Tensor64) {
	return tensor.LSTMGates64(pre, o.p(b).Data, c)
}

func (o f64Ops) gruGates(pre tensor.Tensor64, b *tensor.Tensor, h tensor.Tensor64) (tensor.Tensor64, tensor.Tensor64) {
	return tensor.GRUGates64(pre, o.p(b).Data, h)
}

func (o f64Ops) gateCombine(z, pre tensor.Tensor64, b *tensor.Tensor, h tensor.Tensor64) tensor.Tensor64 {
	return tensor.GateCombine64(z, pre, o.p(b).Data, h)
}

func (o f64Ops) softmax(scores tensor.Tensor64, scale float64) tensor.Tensor64 {
	return tensor.AttentionSoftmax64(scores, scale)
}

func (o f64Ops) act(a Activation, x tensor.Tensor64) tensor.Tensor64 {
	switch a {
	case ActReLU:
		return tensor.ReLUInPlace64(x)
	case ActTanh:
		return tensor.TanhInPlace64(x)
	case ActSigmoid:
		return tensor.SigmoidInPlace64(x)
	}
	panic("nn: unknown activation")
}
