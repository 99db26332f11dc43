package nn

import (
	"repro/internal/tensor"
)

// Float32 inference backend. f32Ops runs the inference graph (infer.go) on
// a Slab32 with the forward-only tensor twins: the same GEMM entry points
// and the same per-element kernel expressions as the tape ops, with no tape
// records, no gradient buffers, and no backward-only scratch. The outputs
// are bitwise identical to ForwardSeq on an inference tape
// (TestForwardSeq32Bitwise pins this per architecture), so serving runs
// this path by default without perturbing a single cached representation.
//
// Weights are shared, not copied: t32 wraps the trained float32 parameters
// in Tensor32 headers in place. The path assumes weights are frozen while
// inference runs — the same assumption the serving layer already makes.

// t32 wraps a trained parameter tensor as a forward-only view.
//
//perfvec:hotpath
func t32(t *tensor.Tensor) tensor.Tensor32 {
	return tensor.Tensor32{Data: t.Data, R: t.Rows(), C: t.Cols()}
}

// f32Ops is the float32 inference backend.
type f32Ops struct{ s *tensor.Slab32 }

func (o f32Ops) slab() *tensor.Slab32 { return o.s }

// linear runs the bias broadcast in place on the GEMM output, exactly as
// Linear.Forward does.
//
//perfvec:hotpath
func (o f32Ops) linear(x tensor.Tensor32, w *tensor.Tensor, b []float32) tensor.Tensor32 {
	y := tensor.MatMulBT32(o.s, x, t32(w))
	if b != nil {
		y = tensor.AddBiasInPlace32(y, b)
	}
	return y
}

//perfvec:hotpath
func (o f32Ops) linearCat(x, h tensor.Tensor32, w *tensor.Tensor) tensor.Tensor32 {
	return tensor.MatMulBTCat32(o.s, x, h, t32(w))
}

//perfvec:hotpath
func (o f32Ops) lstmGates(pre tensor.Tensor32, b []float32, c tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.LSTMGates32(o.s, pre, b, c)
}

//perfvec:hotpath
func (o f32Ops) gruGates(pre tensor.Tensor32, b []float32, h tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.GRUGates32(o.s, pre, b, h)
}

//perfvec:hotpath
func (o f32Ops) gateCombine(z, pre tensor.Tensor32, b []float32, h tensor.Tensor32) tensor.Tensor32 {
	return tensor.GateCombine32(o.s, z, pre, b, h)
}

//perfvec:hotpath
func (o f32Ops) softmax(scores tensor.Tensor32, scale float32) tensor.Tensor32 {
	return tensor.AttentionSoftmax32(o.s, scores, scale)
}

//perfvec:hotpath
func (o f32Ops) act(a Activation, x tensor.Tensor32) tensor.Tensor32 {
	switch a {
	case ActReLU:
		return tensor.ReLUInPlace32(x)
	case ActTanh:
		return tensor.TanhInPlace32(x)
	case ActSigmoid:
		return tensor.SigmoidInPlace32(x)
	}
	panic("nn: unknown activation")
}

// ForwardSeq32 encodes a sequence of [batch, features] tensors on the slab
// through the float32 backend. Every SeqEncoder in this package is
// supported; an unknown implementation panics (the serving layer validates
// the model kind at construction).
//
//perfvec:hotpath
func ForwardSeq32(enc SeqEncoder, s *tensor.Slab32, xs []tensor.Tensor32) tensor.Tensor32 {
	return inferSeq(f32Ops{s}, enc, xs)
}

// Forward32 applies the layer on the slab; the bias broadcast runs in place
// on the GEMM output, exactly as Forward does.
//
//perfvec:hotpath
func (l *Linear) Forward32(s *tensor.Slab32, x tensor.Tensor32) tensor.Tensor32 {
	return inferLinear(f32Ops{s}, l, x)
}

// Forward32 applies all layers with the activation between them.
//
//perfvec:hotpath
func (m *MLP) Forward32(s *tensor.Slab32, x tensor.Tensor32) tensor.Tensor32 {
	return inferMLP(f32Ops{s}, m, x)
}
