package nn

import (
	"repro/internal/tensor"
)

// Int8 inference backend. NewQ8Encoder quantizes a trained float32 model's
// weight matrices once, at model load — per-output-channel symmetric int8,
// pre-packed into the quantized GEMM engine's strip layout
// (tensor.QuantizeWeightsBT) — and ForwardSeqQ8 runs the inference graph
// (infer.go) with every large GEMM (input/recurrent projections, attention
// projections, MLP layers) going through tensor.MatMulQ8* with dynamic
// per-row activation quantization. Everything between the GEMMs stays
// float32: gate nonlinearities, layernorm, softmax, and residual adds — the
// backend uses the fast polynomial transcendentals (tensor.LSTMGatesFast32
// and friends), whose ~5e-7 relative error sits two orders of magnitude
// under the quantization noise this tier already accepts. The int8 drift
// harness in internal/perfvec holds the whole path to a pinned epsilon
// against the float64 oracle.
//
// The recurrent cells' fused [x|h] weights are quantized as two separate
// operands (column ranges [0, in) and [in, in+H)): the x and h activation
// rows are quantized with different scales, so their products must be
// dequantized separately — MatMulQ8Into's add mode sums the two dequantized
// projections exactly where the f32 path's MatMulBTCat32 sums GEMM outputs.
//
// Like the oracle, construction assumes the source model's weights are
// frozen afterwards and allocates freely; the forward path is hot and
// allocation-free on warm slabs.

// q8Weight is one trained weight matrix in quantized form: whole for a plain
// linear map, or split at the input width into x and h operands for a
// recurrent cell's fused weight.
type q8Weight struct {
	full, x, h *tensor.QuantizedWeights
}

// Q8Encoder is a quantized forward-only image of a SeqEncoder.
type Q8Encoder struct {
	enc SeqEncoder
	w   map[*tensor.Tensor]q8Weight
}

// NewQ8Encoder quantizes enc's weights into an int8 inference image. Every
// SeqEncoder in this package is supported; an unknown implementation panics.
func NewQ8Encoder(enc SeqEncoder) *Q8Encoder {
	o := &Q8Encoder{enc: enc, w: map[*tensor.Tensor]q8Weight{}}
	full := func(w *tensor.Tensor) {
		o.w[w] = q8Weight{full: tensor.QuantizeWeightsBT(t32(w), 0, w.Cols())}
	}
	split := func(w *tensor.Tensor, hidden int) {
		in := w.Cols() - hidden
		o.w[w] = q8Weight{
			x: tensor.QuantizeWeightsBT(t32(w), 0, in),
			h: tensor.QuantizeWeightsBT(t32(w), in, w.Cols()),
		}
	}
	switch m := enc.(type) {
	case *LSTM:
		for _, ls := range [][]*lstmLayer{m.fwd, m.bwd} {
			for _, l := range ls {
				split(l.W, l.hidden)
			}
		}
	case *GRU:
		for _, l := range m.layers {
			split(l.Wzr, l.hidden)
			split(l.Wn, l.hidden)
		}
	case *Transformer:
		full(m.Embed.W)
		for _, b := range m.blocks {
			for _, w := range []*tensor.Tensor{b.Wq, b.Wk, b.Wv, b.Wo, b.FF1.W, b.FF2.W} {
				full(w)
			}
		}
	case *LinearSeq:
		full(m.Proj.W)
	case *MLPSeq:
		for _, l := range m.Net.Layers {
			full(l.W)
		}
	default:
		panic("nn: encoder has no int8 path")
	}
	return o
}

// ForwardSeqQ8 encodes a sequence of [batch, features] tensors through the
// int8 backend. s supplies f32 activation scratch exactly as in
// ForwardSeq32; q supplies the quantization scratch each MatMulQ8 call
// owns transiently.
//
//perfvec:hotpath
func ForwardSeqQ8(enc *Q8Encoder, s *tensor.Slab32, q *tensor.SlabI8, xs []tensor.Tensor32) tensor.Tensor32 {
	return inferSeq(q8Ops{s: s, q: q, w: enc.w}, enc.enc, xs)
}

// OutDim reports the width of the encoding.
func (o *Q8Encoder) OutDim() int { return o.enc.OutDim() }

// q8Ops is the int8 inference backend.
type q8Ops struct {
	s *tensor.Slab32
	q *tensor.SlabI8
	w map[*tensor.Tensor]q8Weight
}

func (o q8Ops) slab() *tensor.Slab32 { return o.s }

// linear fuses the bias into the dequantization epilogue.
//
//perfvec:hotpath
func (o q8Ops) linear(x tensor.Tensor32, w *tensor.Tensor, b []float32) tensor.Tensor32 {
	return tensor.MatMulQ8(o.s, o.q, x, o.w[w].full, b)
}

//perfvec:hotpath
func (o q8Ops) linearCat(x, h tensor.Tensor32, w *tensor.Tensor) tensor.Tensor32 {
	qw := o.w[w]
	pre := tensor.MatMulQ8(o.s, o.q, x, qw.x, nil)
	tensor.MatMulQ8Into(o.q, pre, h, qw.h, nil, true)
	return pre
}

//perfvec:hotpath
func (o q8Ops) lstmGates(pre tensor.Tensor32, b []float32, c tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.LSTMGatesFast32(o.s, pre, b, c)
}

//perfvec:hotpath
func (o q8Ops) gruGates(pre tensor.Tensor32, b []float32, h tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.GRUGatesFast32(o.s, pre, b, h)
}

//perfvec:hotpath
func (o q8Ops) gateCombine(z, pre tensor.Tensor32, b []float32, h tensor.Tensor32) tensor.Tensor32 {
	return tensor.GateCombineFast32(o.s, z, pre, b, h)
}

//perfvec:hotpath
func (o q8Ops) softmax(scores tensor.Tensor32, scale float32) tensor.Tensor32 {
	return tensor.AttentionSoftmaxFast32(o.s, scores, scale)
}

//perfvec:hotpath
func (o q8Ops) act(a Activation, x tensor.Tensor32) tensor.Tensor32 {
	switch a {
	case ActReLU:
		return tensor.ReLUInPlace32(x)
	case ActTanh:
		return tensor.TanhFastInPlace32(x)
	case ActSigmoid:
		return tensor.SigmoidFastInPlace32(x)
	}
	panic("nn: unknown activation")
}

// LinearQ8 is a quantized Linear layer: int8 weights, f32 bias fused into
// the dequantization epilogue.
type LinearQ8 struct {
	w *tensor.QuantizedWeights
	b []float32 // nil when bias-free
}

// NewLinearQ8 quantizes l's weights; the bias (if any) aliases the trained
// parameters.
func NewLinearQ8(l *Linear) *LinearQ8 {
	return &LinearQ8{w: tensor.QuantizeWeightsBT(t32(l.W), 0, l.W.Cols()), b: l.biasData()}
}

// Forward applies the layer through the quantized GEMM.
//
//perfvec:hotpath
func (l *LinearQ8) Forward(s *tensor.Slab32, q *tensor.SlabI8, x tensor.Tensor32) tensor.Tensor32 {
	return tensor.MatMulQ8(s, q, x, l.w, l.b)
}
