package nn

import (
	"repro/internal/tensor"
)

// Training backend. tapeOps runs the inference graph (infer.go) on a
// recording tape: each operation is the tape op of the same name, so the
// training forward records exactly the graph every other backend runs, and
// Backward replays it. A nil tape means "no gradients" — the ops compute
// fresh outputs and record nothing, the reference the float32 backend is
// pinned to bit for bit (TestForwardSeq32Bitwise).
type tapeOps struct{ tp *tensor.Tape }

// tapeIn is the tape backend's input: the per-timestep matrices, plus the
// weight and bias of a projection, which the tape applies at each step —
// the ops a training step has always recorded, so its gradients keep their
// summation order.
type tapeIn struct {
	xs   []*tensor.Tensor
	w, b *tensor.Tensor
}

//perfvec:hotpath
func (o tapeOps) window(x tapeIn) (int, int) { return x.xs[0].Rows(), len(x.xs) }

//perfvec:hotpath
func (o tapeOps) project(x tapeIn, w, b *tensor.Tensor) tapeIn {
	return tapeIn{xs: x.xs, w: w, b: b}
}

//perfvec:hotpath
func (o tapeOps) step(p tapeIn, t int) *tensor.Tensor { return o.linear(p.xs[t], p.w, p.b) }

//perfvec:hotpath
func (o tapeOps) stepCat(p tapeIn, t int, h, w *tensor.Tensor) *tensor.Tensor {
	return o.linearCat(p.xs[t], h, w)
}

//perfvec:hotpath
func (o tapeOps) flattenWindows(x tapeIn) *tensor.Tensor { return FlattenSeq(o.tp, x.xs) }

//perfvec:hotpath
func (o tapeOps) mat(r, c int) *tensor.Tensor { return tensor.Zeros(o.tp, r, c) }

//perfvec:hotpath
func (o tapeOps) mats(n int) []*tensor.Tensor { return o.tp.Tensors(n) }

//perfvec:hotpath
func (o tapeOps) concat(a, b *tensor.Tensor) *tensor.Tensor { return tensor.ConcatCols(o.tp, a, b) }

//perfvec:hotpath
func (o tapeOps) stack(xs []*tensor.Tensor, row int) *tensor.Tensor {
	return tensor.StackRows(o.tp, xs, row)
}

//perfvec:hotpath
func (o tapeOps) scores(q, k *tensor.Tensor, from, to int) *tensor.Tensor {
	return tensor.MatMulBTCols(o.tp, q, k, from, to)
}

//perfvec:hotpath
func (o tapeOps) attentionValue(dst, att, v *tensor.Tensor, from, to int) {
	tensor.AttentionValue(o.tp, dst, att, v, from, to)
}

//perfvec:hotpath
func (o tapeOps) add(a, b *tensor.Tensor) *tensor.Tensor { return tensor.Add(o.tp, a, b) }

//perfvec:hotpath
func (o tapeOps) addBias(x, b *tensor.Tensor) *tensor.Tensor {
	return tensor.AddBiasInPlace(o.tp, x, b)
}

//perfvec:hotpath
func (o tapeOps) layerNorm(x, g, b *tensor.Tensor) *tensor.Tensor {
	return tensor.LayerNorm(o.tp, x, g, b, lnEps)
}

//perfvec:hotpath
func (o tapeOps) relu(x *tensor.Tensor) *tensor.Tensor { return tensor.ReLUInPlace(o.tp, x) }

// linear runs the bias broadcast as an in-place epilogue on the GEMM output
// (no extra tensor or gradient buffer).
//
//perfvec:hotpath
func (o tapeOps) linear(x, w, b *tensor.Tensor) *tensor.Tensor {
	y := tensor.MatMulBT(o.tp, x, w)
	if b != nil {
		y = tensor.AddBiasInPlace(o.tp, y, b)
	}
	return y
}

//perfvec:hotpath
func (o tapeOps) linearCat(x, h, w *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulBTCat(o.tp, x, h, w)
}

//perfvec:hotpath
func (o tapeOps) lstmGates(pre, b, c *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	return tensor.LSTMGates(o.tp, pre, b, c)
}

//perfvec:hotpath
func (o tapeOps) gruGates(pre, b, h *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	return tensor.GRUGates(o.tp, pre, b, h)
}

//perfvec:hotpath
func (o tapeOps) gateCombine(z, pre, b, h *tensor.Tensor) *tensor.Tensor {
	return tensor.GateCombine(o.tp, z, pre, b, h)
}

//perfvec:hotpath
func (o tapeOps) softmax(scores *tensor.Tensor, scale float64) *tensor.Tensor {
	return tensor.AttentionSoftmax(o.tp, scores, float32(scale))
}

// act runs in place: every call site feeds it a layer output nothing else
// reads, so the in-place epilogues are always safe here.
//
//perfvec:hotpath
func (o tapeOps) act(a Activation, x *tensor.Tensor) *tensor.Tensor {
	switch a {
	case ActReLU:
		return tensor.ReLUInPlace(o.tp, x)
	case ActTanh:
		return tensor.TanhInPlace(o.tp, x)
	case ActSigmoid:
		return tensor.SigmoidInPlace(o.tp, x)
	}
	panic("nn: unknown activation")
}

// ForwardSeq encodes a sequence of [batch, features] tensors (oldest
// first) on tp, recording the graph for Backward. Every SeqEncoder in this
// package is supported; an unknown implementation panics.
//
//perfvec:hotpath
func ForwardSeq(tp *tensor.Tape, enc SeqEncoder, xs []*tensor.Tensor) *tensor.Tensor {
	return inferSeq[*tensor.Tensor](tapeOps{tp}, enc, tapeIn{xs: xs})
}

// Forward applies the layer to x[batch, in] on tp.
//
//perfvec:hotpath
func (l *Linear) Forward(tp *tensor.Tape, x *tensor.Tensor) *tensor.Tensor {
	return inferLinear[*tensor.Tensor, tapeIn](tapeOps{tp}, l, x)
}

// Forward applies all layers with the activation between them (none after
// the final layer) on tp.
//
//perfvec:hotpath
func (m *MLP) Forward(tp *tensor.Tape, x *tensor.Tensor) *tensor.Tensor {
	return inferMLP[*tensor.Tensor, tapeIn](tapeOps{tp}, m, x)
}
