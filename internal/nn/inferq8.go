package nn

import (
	"repro/internal/tensor"
)

// Int8 inference backend. NewQ8Encoder quantizes a trained float32 model's
// weight matrices once, at model load — per-output-channel symmetric int8,
// pre-packed into the quantized GEMM engine's strip layout
// (tensor.QuantizeWeightsBT) — and ForwardWindowsQ8 runs the inference graph
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

// ForwardWindowsQ8 encodes the window batch x through the int8 backend. s
// supplies the f32 activation scratch exactly as in ForwardWindows32, and
// the quantization scratch each MatMulQ8 call owns transiently.
//
//perfvec:hotpath
func ForwardWindowsQ8(enc *Q8Encoder, s *tensor.Slab32, x Windows[tensor.Tensor32]) tensor.Tensor32 {
	return inferSeq[tensor.Tensor32](q8Ops{slabOps: slabOps{s}, w: enc.w}, enc.enc, x)
}

// OutDim reports the width of the encoding.
func (o *Q8Encoder) OutDim() int { return o.enc.OutDim() }

// q8Ops is the int8 inference backend.
type q8Ops struct {
	slabOps
	w map[*tensor.Tensor]q8Weight
}

// data returns a parameter's values, or nil for an absent (nil) one.
//
//perfvec:hotpath
func data(t *tensor.Tensor) []float32 {
	if t == nil {
		return nil
	}
	return t.Data
}

// linear fuses the bias into the dequantization epilogue.
//
//perfvec:hotpath
func (o q8Ops) linear(x tensor.Tensor32, w, b *tensor.Tensor) tensor.Tensor32 {
	return tensor.MatMulQ8(o.s, x, o.w[w].full, data(b))
}

//perfvec:hotpath
func (o q8Ops) linearCat(x, h tensor.Tensor32, w *tensor.Tensor) tensor.Tensor32 {
	qw := o.w[w]
	pre := tensor.MatMulQ8(o.s, x, qw.x, nil)
	tensor.MatMulQ8Into(o.s, pre, h, qw.h, nil, true)
	return pre
}

// project quantizes each input row once: a plain weight's projection
// carries its bias in the dequantization epilogue, as linear's does; a
// fused weight's x operand is the one linearCat's first MatMulQ8 uses.
// Quantization is per row, so every projected row is the one that call
// computes for the same input row, and stepCat adds the h operand's
// dequantized product on top of it, as linearCat does.
//
//perfvec:hotpath
func (o q8Ops) project(x windows32, w, b *tensor.Tensor) windows32 {
	qw := o.w[w].full
	if qw == nil {
		qw = o.w[w].x
	}
	return o.projected(x, tensor.MatMulQ8(o.s, x.Rows, qw, data(b)), w)
}

//perfvec:hotpath
func (o q8Ops) stepCat(p windows32, t int, h tensor.Tensor32, w *tensor.Tensor) tensor.Tensor32 {
	tensor.GatherRows32(p.pre, p.Rows, p.Start, t)
	tensor.MatMulQ8Into(o.s, p.pre, h, o.w[w].h, nil, true)
	return p.pre
}

//perfvec:hotpath
func (o q8Ops) lstmGates(pre tensor.Tensor32, b *tensor.Tensor, c tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.LSTMGatesFast32(o.s, pre, b.Data, c)
}

//perfvec:hotpath
func (o q8Ops) gruGates(pre tensor.Tensor32, b *tensor.Tensor, h tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.GRUGatesFast32(o.s, pre, b.Data, h)
}

//perfvec:hotpath
func (o q8Ops) gateCombine(z, pre tensor.Tensor32, b *tensor.Tensor, h tensor.Tensor32) tensor.Tensor32 {
	return tensor.GateCombineFast32(o.s, z, pre, b.Data, h)
}

//perfvec:hotpath
func (o q8Ops) softmax(scores tensor.Tensor32, scale float64) tensor.Tensor32 {
	return tensor.AttentionSoftmaxFast32(o.s, scores, float32(scale))
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
	return &LinearQ8{w: tensor.QuantizeWeightsBT(t32(l.W), 0, l.W.Cols()), b: data(l.B)}
}

// Forward applies the layer through the quantized GEMM.
//
//perfvec:hotpath
func (l *LinearQ8) Forward(s *tensor.Slab32, x tensor.Tensor32) tensor.Tensor32 {
	return tensor.MatMulQ8(s, x, l.w, l.b)
}
