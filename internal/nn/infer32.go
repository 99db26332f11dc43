package nn

import (
	"repro/internal/tensor"
)

// Float32 inference backend. f32Ops runs the one graph (infer.go) on a
// Slab32 with the forward-only tensor ops: the same GEMM entry points and
// the same row kernels as the tape ops, with no tape records, no gradient
// buffers, and no backward-only scratch. Its outputs
// are bitwise identical to the tape backend's (ForwardSeq), so serving runs
// this path by default without perturbing a single cached representation,
// and the trainer's validation loss runs on it without changing a bit of
// the training trajectory. TestForwardSeq32Bitwise pins this per
// architecture; since both backends run one graph, that pin compares their
// arithmetic, and TestGraphGolden guards the graph's wiring.
//
// Weights are shared, not copied: t32 wraps the trained float32 parameters
// in Tensor32 headers in place, so a pass always reads the current weights
// — the trainer evaluates between epochs on the weights it just updated.
// A pass must not overlap a weight update.

// t32 wraps a trained parameter tensor as a forward-only view.
//
//perfvec:hotpath
func t32(t *tensor.Tensor) tensor.Tensor32 {
	return tensor.Tensor32{Data: t.Data, R: t.Rows(), C: t.Cols()}
}

// slabOps is the float32 part every float32 backend shares: the slab arena
// and the operations that are not GEMMs or transcendentals. f32Ops and q8Ops
// embed it.
type slabOps struct{ s *tensor.Slab32 }

//perfvec:hotpath
func (o slabOps) mat(r, c int) tensor.Tensor32 { return o.s.Mat(r, c) }

//perfvec:hotpath
func (o slabOps) mats(n int) []tensor.Tensor32 { return o.s.Mats(n) }

//perfvec:hotpath
func (o slabOps) concat(a, b tensor.Tensor32) tensor.Tensor32 {
	return tensor.ConcatCols32(o.s, a, b)
}

//perfvec:hotpath
func (o slabOps) stack(xs []tensor.Tensor32, row int) tensor.Tensor32 {
	return tensor.StackRows32(o.s, xs, row)
}

// scores and attentionValue multiply two dynamic activations, so they stay
// float32 GEMMs on every float32 backend.
//
//perfvec:hotpath
func (o slabOps) scores(q, k tensor.Tensor32, from, to int) tensor.Tensor32 {
	return tensor.MatMulBTCols32(o.s, q, k, from, to)
}

//perfvec:hotpath
func (o slabOps) attentionValue(dst, att, v tensor.Tensor32, from, to int) {
	tensor.AttentionValue32(o.s, dst, att, v, from, to)
}

//perfvec:hotpath
func (o slabOps) add(a, b tensor.Tensor32) tensor.Tensor32 { return tensor.Add32(o.s, a, b) }

//perfvec:hotpath
func (o slabOps) addBias(x tensor.Tensor32, b *tensor.Tensor) tensor.Tensor32 {
	return tensor.AddBiasInPlace32(x, b.Data)
}

//perfvec:hotpath
func (o slabOps) layerNorm(x tensor.Tensor32, g, b *tensor.Tensor) tensor.Tensor32 {
	return tensor.LayerNorm32(o.s, x, g.Data, b.Data, lnEps)
}

//perfvec:hotpath
func (o slabOps) relu(x tensor.Tensor32) tensor.Tensor32 { return tensor.ReLUInPlace32(x) }

// windows32 is the float32 backends' input form.
type windows32 = Windows[tensor.Tensor32]

//perfvec:hotpath
func (o slabOps) window(x windows32) (int, int) { return len(x.Start), x.Len }

// step gathers window position t of every output row into a fresh matrix,
// which the caller may then accumulate into.
//
//perfvec:hotpath
func (o slabOps) step(p windows32, t int) tensor.Tensor32 {
	out := o.s.Mat(len(p.Start), p.Rows.C)
	tensor.GatherRows32(out, p.Rows, p.Start, t)
	return out
}

// flattenWindows gathers each output row's window, Len contiguous rows.
//
//perfvec:hotpath
func (o slabOps) flattenWindows(x windows32) tensor.Tensor32 {
	out := o.s.Mat(len(x.Start), x.Len*x.Rows.C)
	tensor.GatherRows32(out, x.Rows, x.Start, 0)
	return out
}

// projected wraps a projection p of x, with the step buffer stepCat gathers
// into when w is a recurrent cell's fused weight (wider than the input).
//
//perfvec:hotpath
func (o slabOps) projected(x windows32, p tensor.Tensor32, w *tensor.Tensor) windows32 {
	out := windows32{Rows: p, Start: x.Start, Len: x.Len}
	if w.Cols() > x.Rows.C {
		out.pre = o.s.Mat(len(x.Start), p.C)
	}
	return out
}

// f32Ops is the float32 inference backend.
type f32Ops struct{ slabOps }

// linear runs the bias broadcast in place on the GEMM output, exactly as
// the tape backend does.
//
//perfvec:hotpath
func (o f32Ops) linear(x tensor.Tensor32, w, b *tensor.Tensor) tensor.Tensor32 {
	y := tensor.MatMulBT32(o.s, x, t32(w))
	if b != nil {
		y = tensor.AddBiasInPlace32(y, b.Data)
	}
	return y
}

//perfvec:hotpath
func (o f32Ops) linearCat(x, h tensor.Tensor32, w *tensor.Tensor) tensor.Tensor32 {
	return tensor.MatMulBTCat32(o.s, x, h, t32(w))
}

// project computes the first layer's input projection once per input row
// — the x-part pass MatMulBTCat32 makes, with the bias broadcast in place
// after it as linear does — and stepCat adds the h-part pass on top of each
// step's gathered rows, so every pre-activation element is the same FMA
// chain the fused op computes.
//
//perfvec:hotpath
func (o f32Ops) project(x windows32, w, b *tensor.Tensor) windows32 {
	p := o.s.Mat(x.Rows.R, w.Rows())
	tensor.MatMulBTPart32(o.s, p, x.Rows, t32(w), 0)
	if b != nil {
		p = tensor.AddBiasInPlace32(p, b.Data)
	}
	return o.projected(x, p, w)
}

//perfvec:hotpath
func (o f32Ops) stepCat(p windows32, t int, h tensor.Tensor32, w *tensor.Tensor) tensor.Tensor32 {
	tensor.GatherRows32(p.pre, p.Rows, p.Start, t)
	tensor.MatMulBTPart32(o.s, p.pre, h, t32(w), w.Cols()-h.C)
	return p.pre
}

//perfvec:hotpath
func (o f32Ops) lstmGates(pre tensor.Tensor32, b *tensor.Tensor, c tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.LSTMGates32(o.s, pre, b.Data, c)
}

//perfvec:hotpath
func (o f32Ops) gruGates(pre tensor.Tensor32, b *tensor.Tensor, h tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32) {
	return tensor.GRUGates32(o.s, pre, b.Data, h)
}

//perfvec:hotpath
func (o f32Ops) gateCombine(z, pre tensor.Tensor32, b *tensor.Tensor, h tensor.Tensor32) tensor.Tensor32 {
	return tensor.GateCombine32(o.s, z, pre, b.Data, h)
}

//perfvec:hotpath
func (o f32Ops) softmax(scores tensor.Tensor32, scale float64) tensor.Tensor32 {
	return tensor.AttentionSoftmax32(o.s, scores, float32(scale))
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

// ForwardWindows32 encodes the window batch x on the slab through the
// float32 backend. Every SeqEncoder in this package is supported; an
// unknown implementation panics (the serving layer validates the model kind
// at construction).
//
//perfvec:hotpath
func ForwardWindows32(enc SeqEncoder, s *tensor.Slab32, x Windows[tensor.Tensor32]) tensor.Tensor32 {
	return inferSeq[tensor.Tensor32](f32Ops{slabOps{s}}, enc, x)
}

// Forward32 applies the layer on the slab; the bias broadcast runs in place
// on the GEMM output, exactly as Forward does.
//
//perfvec:hotpath
func (l *Linear) Forward32(s *tensor.Slab32, x tensor.Tensor32) tensor.Tensor32 {
	return inferLinear[tensor.Tensor32, windows32](f32Ops{slabOps{s}}, l, x)
}

// Forward32 applies all layers with the activation between them.
//
//perfvec:hotpath
func (m *MLP) Forward32(s *tensor.Slab32, x tensor.Tensor32) tensor.Tensor32 {
	return inferMLP[tensor.Tensor32, windows32](f32Ops{slabOps{s}}, m, x)
}
