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
// The graph's input has a backend-specific form. The forward-only backends
// take a window batch (Windows): each input row once, with each output row
// naming where its window starts, so the first layer — an LSTM or GRU
// stack's input projections, the transformer's embedding — projects every
// row once (project) and each step gathers its rows from the projection
// (step, stepCat); the recurrent half then accumulates onto the gathered
// rows through the same second GEMM pass the fused [x|h] op makes, and a
// row's projection depends only on that row, so the bits are the fused
// op's. The tape takes per-timestep matrices and applies the projection at
// each step, exactly the ops training has always recorded, so the
// gradients keep their summation order.
//
// The graphs are instantiated per backend (type parameters, not interface
// values), so a backend carrying several pointers is passed by value and a
// float32 pass stays allocation-free on warm slabs.

// matrix is the activation type an inference graph runs on.
type matrix interface {
	Rows() int
}

// Windows is a window batch, the input form of the forward-only backends:
// output row b reads the window of Len consecutive rows of Rows (oldest
// first) that begins at row Start[b]. Consecutive instructions of one
// program share all but one row of their windows, so a batch that lists
// each program segment's rows once — preceded by the Len-1 rows before the
// segment, zero before the program start — holds each instruction once, and
// the first layer projects each instruction once. Windows that share no
// rows, such as an evaluation batch's samples, are each their own segment:
// Start[b] = b·Len.
type Windows[M matrix] struct {
	Rows  M
	Start []int32
	Len   int

	// pre is the [batch, out] matrix a float32 backend's stepCat gathers
	// each step of a recurrent projection into and returns: the cell reads
	// it before the next step overwrites it, so one buffer serves every step.
	pre M
}

// lnEps is the layernorm epsilon of every transformer block; each backend
// converts it to its own precision.
const lnEps = 1e-5

// inferOps is the operation set a backend supplies. Parameters —
// weights, biases, layernorm gains and positional encodings — are named by
// the trained tensor; a backend maps them to whatever operand form its
// kernels consume. A nil bias means the layer is bias-free.
type inferOps[T matrix, X any] interface {
	// mat returns a zeroed r x c matrix; mats a list of n matrix headers.
	mat(r, c int) T
	mats(n int) []T
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

	// The encoder's input, in the backend's form X: a window batch on the
	// forward-only backends, per-timestep matrices on the tape.

	// window reports the input's output rows and window length.
	window(x X) (batch, steps int)
	// project returns the first layer's input projection of x: window
	// position t of the result is x_t·w[:, :in]ᵀ, plus b when non-nil,
	// where in is the input width — all of w for a plain linear map (the
	// transformer's embedding), the x block of a recurrent cell's fused
	// [x|h] weight.
	project(x X, w, b *tensor.Tensor) X
	// step returns window position t of a projection.
	step(p X, t int) T
	// stepCat returns window position t of a projection through a fused
	// weight w, plus h·w[:, in:]ᵀ: a recurrent cell's pre-activations,
	// [x_t|h]·wᵀ. The result is valid until the next stepCat on p.
	stepCat(p X, t int, h T, w *tensor.Tensor) T
	// flattenWindows lays each output row's window side by side:
	// [batch, steps·in].
	flattenWindows(x X) T
}

// inferSeq encodes the input x. Every SeqEncoder in this package is
// supported; an unknown implementation panics (the serving layer validates
// the model kind at construction).
//
//perfvec:hotpath
func inferSeq[T matrix, X any, O inferOps[T, X]](o O, enc SeqEncoder, x X) T {
	switch m := enc.(type) {
	case *LSTM:
		return inferLSTM(o, m, x)
	case *GRU:
		return inferGRU(o, m, x)
	case *Transformer:
		return inferTransformer(o, m, x)
	case *LinearSeq:
		return inferLinear(o, m.Proj, o.flattenWindows(x))
	case *MLPSeq:
		return inferMLP(o, m.Net, o.flattenWindows(x))
	}
	panic("nn: encoder has no forward-only inference path")
}

//perfvec:hotpath
func inferLinear[T matrix, X any, O inferOps[T, X]](o O, l *Linear, x T) T {
	return o.linear(x, l.W, l.B)
}

//perfvec:hotpath
func inferMLP[T matrix, X any, O inferOps[T, X]](o O, m *MLP, x T) T {
	for i, l := range m.Layers {
		x = inferLinear[T, X](o, l, x)
		if i+1 < len(m.Layers) {
			x = o.act(m.Act, x)
		}
	}
	return x
}

// cellPre returns a recurrent cell's pre-activations [x_t|h]·wᵀ at step t:
// from the input projection p on a stack's first layer (xs nil), whose
// window position is pos, and from the previous layer's outputs xs on every
// later layer.
//
//perfvec:hotpath
func cellPre[T matrix, X any, O inferOps[T, X]](o O, p X, xs []T, t, pos int, h T, w *tensor.Tensor) T {
	if xs == nil {
		return o.stepCat(p, pos, h, w)
	}
	return o.linearCat(xs[t], h, w)
}

// inferLSTMStack runs a stack of LSTM layers over the input x and returns
// the last layer's outputs, one per step. A backward stack (rev) reads the
// window newest first.
//
//perfvec:hotpath
func inferLSTMStack[T matrix, X any, O inferOps[T, X]](o O, ls []*lstmLayer, x X, rev bool) []T {
	batch, steps := o.window(x)
	p := o.project(x, ls[0].W, nil)
	var hs []T
	for _, l := range ls {
		h := o.mat(batch, l.hidden)
		c := o.mat(batch, l.hidden)
		next := o.mats(steps)
		for t := range next {
			pos := t
			if rev {
				pos = steps - 1 - t
			}
			h, c = o.lstmGates(cellPre(o, p, hs, t, pos, h, l.W), l.B, c)
			next[t] = h
		}
		hs = next
	}
	return hs
}

//perfvec:hotpath
func inferLSTM[T matrix, X any, O inferOps[T, X]](o O, m *LSTM, x X) T {
	hs := inferLSTMStack(o, m.fwd, x, false)
	out := hs[len(hs)-1]
	if m.bwd == nil {
		return out
	}
	rev := inferLSTMStack(o, m.bwd, x, true)
	return o.concat(out, rev[len(rev)-1])
}

//perfvec:hotpath
func inferGRU[T matrix, X any, O inferOps[T, X]](o O, m *GRU, x X) T {
	batch, steps := o.window(x)
	zr := o.project(x, m.layers[0].Wzr, nil)
	n := o.project(x, m.layers[0].Wn, nil)
	var hs []T
	for _, l := range m.layers {
		h := o.mat(batch, l.hidden)
		next := o.mats(steps)
		for t := range next {
			z, rh := o.gruGates(cellPre(o, zr, hs, t, t, h, l.Wzr), l.Bzr, h)
			h = o.gateCombine(z, cellPre(o, n, hs, t, t, rh, l.Wn), l.Bn, h)
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
func inferBlock[T matrix, X any, O inferOps[T, X]](o O, b *encoderBlock, x T) T {
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
	ff := inferLinear[T, X](o, b.FF2, o.relu(inferLinear[T, X](o, b.FF1, x)))
	return o.layerNorm(o.add(x, ff), b.G2, b.B2)
}

//perfvec:hotpath
func inferTransformer[T matrix, X any, O inferOps[T, X]](o O, t *Transformer, x X) T {
	batch, steps := o.window(x)
	if steps > len(t.pos) {
		panic("nn: transformer sequence longer than configured seqLen")
	}
	e := o.project(x, t.Embed.W, t.Embed.B)
	emb := o.mats(steps)
	for i := range emb {
		// The positional encoding runs as an in-place epilogue on the fresh
		// embedding. The encodings are fixed: on a tape their gradient is
		// accumulated but never read.
		emb[i] = o.addBias(o.step(e, i), t.pos[i])
	}
	seqs := o.mats(batch)
	for smp := range seqs {
		seq := o.stack(emb, smp)
		for _, blk := range t.blocks {
			seq = inferBlock[T, X](o, blk, seq)
		}
		seqs[smp] = seq
	}
	// Each sample's encoding is the last position of its sequence.
	return o.stack(seqs, steps-1)
}
