package nn

import (
	"math"

	"repro/internal/tensor"
)

// Forward-only inference graph. Each architecture's inference forward pass
// is written once below, generic over a small backend (inferOps) that owns
// the kernels: the linear maps, the recurrent gate blocks, the attention
// softmax and the MLP activation. Everything else — slab scratch, flatten,
// stacking, attention scores and value mixing, residual adds, layernorm —
// is shared float32 code. Two backends exist:
//
//   - f32Ops (infer32.go) runs the packed float32 GEMMs and the exact gate
//     kernels, bitwise identical to ForwardSeq on an inference tape
//     (TestForwardSeq32Bitwise pins this per architecture);
//   - q8Ops (inferq8.go) runs the int8 GEMMs over weights quantized once at
//     load and the fast polynomial gate/softmax/activation kernels, held to
//     a pinned epsilon against the float64 oracle.
//
// The graphs are instantiated per backend (type parameters, not interface
// values), so a backend carrying several pointers is passed by value and a
// pass stays allocation-free on warm slabs.
//
// The float64 oracle (oracle64.go) keeps its own graph on purpose: it is the
// independent reference both drift harnesses compare these backends against.

// inferOps is the kernel set an inference backend supplies. Weights are
// named by the trained parameter tensor; a backend maps them to whatever
// operand form its GEMMs consume.
type inferOps interface {
	// slab is the float32 activation arena of the pass.
	slab() *tensor.Slab32
	// linear returns x·wᵀ, with b broadcast over rows when b is non-nil.
	linear(x tensor.Tensor32, w *tensor.Tensor, b []float32) tensor.Tensor32
	// linearCat returns [x|h]·wᵀ for a recurrent cell's fused weight.
	linearCat(x, h tensor.Tensor32, w *tensor.Tensor) tensor.Tensor32
	// lstmGates applies the LSTM cell to its pre-activations: (h', c').
	lstmGates(pre tensor.Tensor32, b []float32, c tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32)
	// gruGates applies the update/reset block: (z, r∘h).
	gruGates(pre tensor.Tensor32, b []float32, h tensor.Tensor32) (tensor.Tensor32, tensor.Tensor32)
	// gateCombine applies the candidate block and interpolates the state.
	gateCombine(z, pre tensor.Tensor32, b []float32, h tensor.Tensor32) tensor.Tensor32
	// softmax applies the scaled row softmax to attention scores in place.
	softmax(scores tensor.Tensor32, scale float32) tensor.Tensor32
	// act applies an MLP activation in place.
	act(a Activation, x tensor.Tensor32) tensor.Tensor32
}

// biasData returns the layer's bias, or nil when it is bias-free.
func (l *Linear) biasData() []float32 {
	if l.bias {
		return l.B.Data
	}
	return nil
}

// inferSeq encodes a sequence of [batch, features] tensors. Every
// SeqEncoder in this package is supported; an unknown implementation panics
// (the backends validate the model kind at construction).
//
//perfvec:hotpath
func inferSeq[O inferOps](o O, enc SeqEncoder, xs []tensor.Tensor32) tensor.Tensor32 {
	switch m := enc.(type) {
	case *LSTM:
		return inferLSTM(o, m, xs)
	case *GRU:
		return inferGRU(o, m, xs)
	case *Transformer:
		return inferTransformer(o, m, xs)
	case *LinearSeq:
		return inferLinear(o, m.Proj, tensor.FlattenSeq32(o.slab(), xs))
	case *MLPSeq:
		return inferMLP(o, m.Net, tensor.FlattenSeq32(o.slab(), xs))
	}
	panic("nn: encoder has no forward-only inference path")
}

//perfvec:hotpath
func inferLinear[O inferOps](o O, l *Linear, x tensor.Tensor32) tensor.Tensor32 {
	return o.linear(x, l.W, l.biasData())
}

//perfvec:hotpath
func inferMLP[O inferOps](o O, m *MLP, x tensor.Tensor32) tensor.Tensor32 {
	for i, l := range m.Layers {
		x = inferLinear(o, l, x)
		if i+1 < len(m.Layers) {
			x = o.act(m.Act, x)
		}
	}
	return x
}

//perfvec:hotpath
func inferLSTMLayer[O inferOps](o O, l *lstmLayer, xs []tensor.Tensor32) []tensor.Tensor32 {
	s := o.slab()
	batch := xs[0].R
	h := s.Mat(batch, l.hidden)
	c := s.Mat(batch, l.hidden)
	hs := s.Mats(len(xs))
	for t, x := range xs {
		h, c = o.lstmGates(o.linearCat(x, h, l.W), l.B.Data, c)
		hs[t] = h
	}
	return hs
}

//perfvec:hotpath
func inferLSTM[O inferOps](o O, m *LSTM, xs []tensor.Tensor32) tensor.Tensor32 {
	s := o.slab()
	hs := xs
	for _, l := range m.fwd {
		hs = inferLSTMLayer(o, l, hs)
	}
	out := hs[len(hs)-1]
	if m.bwd == nil {
		return out
	}
	rev := s.Mats(len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	for _, l := range m.bwd {
		rev = inferLSTMLayer(o, l, rev)
	}
	return tensor.ConcatCols32(s, out, rev[len(rev)-1])
}

//perfvec:hotpath
func inferGRU[O inferOps](o O, m *GRU, xs []tensor.Tensor32) tensor.Tensor32 {
	s := o.slab()
	hs := xs
	for _, l := range m.layers {
		h := s.Mat(hs[0].R, l.hidden)
		next := s.Mats(len(hs))
		for t, x := range hs {
			z, rh := o.gruGates(o.linearCat(x, h, l.Wzr), l.Bzr.Data, h)
			h = o.gateCombine(z, o.linearCat(x, rh, l.Wn), l.Bn.Data, h)
			next[t] = h
		}
		hs = next
	}
	return hs[len(hs)-1]
}

// inferBlock processes one sample's sequence x[T, D]. The only structural
// difference from the tape forward: per-head outputs are written straight
// into their column range of headsOut (AttentionValue32), which fuses the
// tape path's SliceCols/MatMul/ConcatCols into leading-dimension-aware GEMM
// calls with bitwise-identical values. Scores and value mixing multiply two
// dynamic activations, so they stay float32 on every backend.
//
//perfvec:hotpath
func inferBlock[O inferOps](o O, b *encoderBlock, x tensor.Tensor32) tensor.Tensor32 {
	s := o.slab()
	q := o.linear(x, b.Wq, nil)
	k := o.linear(x, b.Wk, nil)
	v := o.linear(x, b.Wv, nil)
	dk := b.dim / b.heads
	scale := float32(1 / math.Sqrt(float64(dk)))
	headsOut := s.Mat(x.R, b.dim)
	for h := 0; h < b.heads; h++ {
		att := o.softmax(tensor.MatMulBTCols32(s, q, k, h*dk, (h+1)*dk), scale)
		tensor.AttentionValue32(headsOut, att, v, h*dk, (h+1)*dk)
	}
	attOut := o.linear(headsOut, b.Wo, nil)
	x = tensor.LayerNorm32(s, tensor.Add32(s, x, attOut), b.G1.Data, b.B1.Data, 1e-5)
	ff := inferLinear(o, b.FF2, tensor.ReLUInPlace32(inferLinear(o, b.FF1, x)))
	return tensor.LayerNorm32(s, tensor.Add32(s, x, ff), b.G2.Data, b.B2.Data, 1e-5)
}

//perfvec:hotpath
func inferTransformer[O inferOps](o O, t *Transformer, xs []tensor.Tensor32) tensor.Tensor32 {
	if len(xs) > len(t.pos) {
		panic("nn: transformer sequence longer than configured seqLen")
	}
	s := o.slab()
	emb := s.Mats(len(xs))
	for i, x := range xs {
		// The positional encoding runs as an in-place epilogue on the fresh
		// embedding: the same addition, in the same order, as the tape
		// path's AddBias, without its output tensor.
		emb[i] = tensor.AddBiasInPlace32(inferLinear(o, t.Embed, x), t.pos[i].Data)
	}
	batch := xs[0].R
	T := len(xs)
	out := s.Mat(batch, t.dim)
	for smp := 0; smp < batch; smp++ {
		seq := tensor.StackRows32(s, emb, smp)
		for _, blk := range t.blocks {
			seq = inferBlock(o, blk, seq)
		}
		copy(out.Row(smp), seq.Row(T-1))
	}
	return out
}
