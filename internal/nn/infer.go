package nn

import (
	"math"

	"repro/internal/tensor"
)

// The one forward graph. Each architecture's forward pass is written once
// below, generic over the activation matrix type and a backend (inferOps)
// that owns every operation on it: the arena, the linear maps, the recurrent
// gate blocks, flatten/concat/stack, attention scores, softmax and value
// mixing, residual adds, layernorm and the activations. Training, serving,
// representation generation, validation and the oracle all run it; a new
// architecture, or a change to one, is written here and nowhere else. Four
// backends exist:
//
//   - tapeOps (infertape.go) records every operation on a tensor.Tape, so
//     Backward replays the graph: the training forward (ForwardSeq,
//     Linear.Forward, MLP.Forward). On a nil tape it records nothing;
//   - f32Ops (infer32.go) runs the packed float32 GEMMs and the exact gate
//     kernels, bitwise identical to the tape backend (TestForwardSeq32Bitwise
//     pins this per architecture). Serving, representation generation and
//     the trainer's validation loss all run on it;
//   - q8Ops (inferq8.go) runs the int8 GEMMs over weights quantized once at
//     load and the fast polynomial gate/softmax/activation kernels, held to
//     a pinned epsilon against the float64 oracle;
//   - f64Ops (oracle64.go) widens the weights once and runs every kernel in
//     float64: the oracle both drift harnesses compare the other two against.
//
// f32Ops and q8Ops share one float32 implementation of everything but the
// GEMMs and transcendentals (slabOps, embedded in both). Because every
// backend runs the same graph, the pins between backends check their
// arithmetic, not the graph's wiring; TestGraphGolden guards the wiring
// against recorded encodings and gradients.
//
// The graphs are instantiated per backend (type parameters, not interface
// values), so a backend carrying several pointers is passed by value and a
// float32 pass stays allocation-free on warm slabs.

// matrix is the activation type an inference graph runs on.
type matrix interface {
	Rows() int
}

// lnEps is the layernorm epsilon of every transformer block; each backend
// converts it to its own precision.
const lnEps = 1e-5

// inferOps is the operation set a backend supplies. Parameters —
// weights, biases, layernorm gains and positional encodings — are named by
// the trained tensor; a backend maps them to whatever operand form its
// kernels consume. A nil bias means the layer is bias-free.
type inferOps[T matrix] interface {
	// mat returns a zeroed r x c matrix; mats a list of n matrix headers.
	mat(r, c int) T
	mats(n int) []T
	// flatten lays the timesteps of xs side by side per row.
	flatten(xs []T) T
	// concat returns [a|b].
	concat(a, b T) T
	// stack gathers row `row` of each of xs into one [len(xs), C] matrix.
	stack(xs []T, row int) T
	// scores returns q[:, from:to]·k[:, from:to]ᵀ.
	scores(q, k T, from, to int) T
	// attentionValue writes att·v[:, from:to] into columns [from, to) of dst.
	attentionValue(dst, att, v T, from, to int)
	// add returns a + b.
	add(a, b T) T
	// addBias adds b to every row of x in place.
	addBias(x T, b *tensor.Tensor) T
	// layerNorm normalizes each row of x, then applies gain g and bias b.
	layerNorm(x T, g, b *tensor.Tensor) T
	// relu applies max(·, 0) in place.
	relu(x T) T
	// linear returns x·wᵀ, with b broadcast over rows when non-nil.
	linear(x T, w, b *tensor.Tensor) T
	// linearCat returns [x|h]·wᵀ for a recurrent cell's fused weight.
	linearCat(x, h T, w *tensor.Tensor) T
	// lstmGates applies the LSTM cell to its pre-activations: (h', c').
	lstmGates(pre T, b *tensor.Tensor, c T) (T, T)
	// gruGates applies the update/reset block: (z, r∘h).
	gruGates(pre T, b *tensor.Tensor, h T) (T, T)
	// gateCombine applies the candidate block and interpolates the state.
	gateCombine(z, pre T, b *tensor.Tensor, h T) T
	// softmax applies the scaled row softmax to attention scores.
	softmax(scores T, scale float64) T
	// act applies an MLP activation in place.
	act(a Activation, x T) T
}

// inferSeq encodes a sequence of [batch, features] matrices. Every
// SeqEncoder in this package is supported; an unknown implementation panics
// (the serving layer validates the model kind at construction).
//
//perfvec:hotpath
func inferSeq[T matrix, O inferOps[T]](o O, enc SeqEncoder, xs []T) T {
	switch m := enc.(type) {
	case *LSTM:
		return inferLSTM(o, m, xs)
	case *GRU:
		return inferGRU(o, m, xs)
	case *Transformer:
		return inferTransformer(o, m, xs)
	case *LinearSeq:
		return inferLinear(o, m.Proj, o.flatten(xs))
	case *MLPSeq:
		return inferMLP(o, m.Net, o.flatten(xs))
	}
	panic("nn: encoder has no forward-only inference path")
}

//perfvec:hotpath
func inferLinear[T matrix, O inferOps[T]](o O, l *Linear, x T) T {
	return o.linear(x, l.W, l.B)
}

//perfvec:hotpath
func inferMLP[T matrix, O inferOps[T]](o O, m *MLP, x T) T {
	for i, l := range m.Layers {
		x = inferLinear(o, l, x)
		if i+1 < len(m.Layers) {
			x = o.act(m.Act, x)
		}
	}
	return x
}

//perfvec:hotpath
func inferLSTMLayer[T matrix, O inferOps[T]](o O, l *lstmLayer, xs []T) []T {
	batch := xs[0].Rows()
	h := o.mat(batch, l.hidden)
	c := o.mat(batch, l.hidden)
	hs := o.mats(len(xs))
	for t, x := range xs {
		h, c = o.lstmGates(o.linearCat(x, h, l.W), l.B, c)
		hs[t] = h
	}
	return hs
}

//perfvec:hotpath
func inferLSTM[T matrix, O inferOps[T]](o O, m *LSTM, xs []T) T {
	hs := xs
	for _, l := range m.fwd {
		hs = inferLSTMLayer(o, l, hs)
	}
	out := hs[len(hs)-1]
	if m.bwd == nil {
		return out
	}
	rev := o.mats(len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	for _, l := range m.bwd {
		rev = inferLSTMLayer(o, l, rev)
	}
	return o.concat(out, rev[len(rev)-1])
}

//perfvec:hotpath
func inferGRU[T matrix, O inferOps[T]](o O, m *GRU, xs []T) T {
	hs := xs
	for _, l := range m.layers {
		h := o.mat(hs[0].Rows(), l.hidden)
		next := o.mats(len(hs))
		for t, x := range hs {
			z, rh := o.gruGates(o.linearCat(x, h, l.Wzr), l.Bzr, h)
			h = o.gateCombine(z, o.linearCat(x, rh, l.Wn), l.Bn, h)
			next[t] = h
		}
		hs = next
	}
	return hs[len(hs)-1]
}

// inferBlock processes one sample's sequence x[T, D] (post-norm: residual
// add, then layernorm). Per-head outputs are written straight into their
// column range of headsOut (attentionValue): leading-dimension-aware GEMM
// calls, with no per-head slice or concatenation.
//
//perfvec:hotpath
func inferBlock[T matrix, O inferOps[T]](o O, b *encoderBlock, x T) T {
	q := o.linear(x, b.Wq, nil)
	k := o.linear(x, b.Wk, nil)
	v := o.linear(x, b.Wv, nil)
	dk := b.dim / b.heads
	scale := 1 / math.Sqrt(float64(dk))
	headsOut := o.mat(x.Rows(), b.dim)
	for h := 0; h < b.heads; h++ {
		att := o.softmax(o.scores(q, k, h*dk, (h+1)*dk), scale)
		o.attentionValue(headsOut, att, v, h*dk, (h+1)*dk)
	}
	attOut := o.linear(headsOut, b.Wo, nil)
	x = o.layerNorm(o.add(x, attOut), b.G1, b.B1)
	ff := inferLinear(o, b.FF2, o.relu(inferLinear(o, b.FF1, x)))
	return o.layerNorm(o.add(x, ff), b.G2, b.B2)
}

//perfvec:hotpath
func inferTransformer[T matrix, O inferOps[T]](o O, t *Transformer, xs []T) T {
	if len(xs) > len(t.pos) {
		panic("nn: transformer sequence longer than configured seqLen")
	}
	emb := o.mats(len(xs))
	for i, x := range xs {
		// The positional encoding runs as an in-place epilogue on the fresh
		// embedding. The encodings are fixed: on a tape their gradient is
		// accumulated but never read.
		emb[i] = o.addBias(inferLinear(o, t.Embed, x), t.pos[i])
	}
	batch := xs[0].Rows()
	seqs := o.mats(batch)
	for smp := range seqs {
		seq := o.stack(emb, smp)
		for _, blk := range t.blocks {
			seq = inferBlock(o, blk, seq)
		}
		seqs[smp] = seq
	}
	// Each sample's encoding is the last position of its sequence.
	return o.stack(seqs, len(xs)-1)
}
