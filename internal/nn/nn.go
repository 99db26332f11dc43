// Package nn implements the neural-network layers, losses, and optimizers
// used by PerfVec's models: Linear, MLP, LSTM (uni- and bidirectional), GRU,
// and a Transformer encoder, plus Adam and step learning-rate decay.
//
// All models operate on batched per-timestep inputs: a sequence is a slice of
// [batch, features] tensors, one per timestep, and a sequence encoder reduces
// it to a single [batch, outDim] encoding.
package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// SeqEncoder is a sequence model that encodes a sequence of [batch,
// features] tensors into a single [batch, OutDim] tensor. All PerfVec
// foundation-model architectures implement it; their forward pass is the
// one graph in infer.go, run on a tape by ForwardSeq and on the forward-only
// backends, over a window batch, by ForwardWindows32, ForwardWindowsQ8 and
// Oracle64.ForwardWindows.
type SeqEncoder interface {
	// OutDim reports the width of the encoding.
	OutDim() int
	// Params returns all trainable tensors in a deterministic order.
	Params() []*tensor.Tensor
}

// Linear is a fully-connected layer y = x*W^T + b.
type Linear struct {
	W *tensor.Tensor // [out, in]
	B *tensor.Tensor // [out], nil when the layer is bias-free
}

// NewLinear creates a Linear layer with Xavier-initialized weights.
// withBias controls whether an additive bias is learned; PerfVec's
// performance predictor must be bias-free for the composition theorem.
func NewLinear(rng *rand.Rand, in, out int, withBias bool) *Linear {
	l := &Linear{W: tensor.XavierUniform(rng, out, in)}
	if withBias {
		l.B = tensor.New(out)
	}
	return l
}

// Params returns the layer's trainable tensors.
func (l *Linear) Params() []*tensor.Tensor {
	if l.B != nil {
		return []*tensor.Tensor{l.W, l.B}
	}
	return []*tensor.Tensor{l.W}
}

// Activation selects the nonlinearity used between MLP layers.
type Activation int

// Supported activations.
const (
	ActReLU Activation = iota
	ActTanh
	ActSigmoid
)

// MLP is a multilayer perceptron with a configurable activation.
type MLP struct {
	Layers []*Linear
	Act    Activation
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [in, h1, out].
func NewMLP(rng *rand.Rand, act Activation, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Act: act}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, sizes[i], sizes[i+1], true))
	}
	return m
}

// Params returns all trainable tensors.
func (m *MLP) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// FlattenSeq concatenates per-timestep inputs into one [batch, T*F] tensor,
// the input form used by the Linear and MLP sequence baselines.
func FlattenSeq(tp *tensor.Tape, xs []*tensor.Tensor) *tensor.Tensor {
	out := xs[0]
	for _, x := range xs[1:] {
		out = tensor.ConcatCols(tp, out, x)
	}
	return out
}

// LinearSeq is the Linear-1 baseline from the paper's Figure 6: a single
// bias-free linear map over the flattened instruction window.
type LinearSeq struct {
	Proj *Linear
	dim  int
}

// NewLinearSeq builds the linear sequence encoder for seqLen timesteps of
// featDim features each.
func NewLinearSeq(rng *rand.Rand, seqLen, featDim, outDim int) *LinearSeq {
	return &LinearSeq{Proj: NewLinear(rng, seqLen*featDim, outDim, true), dim: outDim}
}

// OutDim implements SeqEncoder.
func (l *LinearSeq) OutDim() int { return l.dim }

// Params implements SeqEncoder.
func (l *LinearSeq) Params() []*tensor.Tensor { return l.Proj.Params() }

// MLPSeq is the MLP baseline from Figure 6 applied to the flattened window.
type MLPSeq struct {
	Net *MLP
	dim int
}

// NewMLPSeq builds an MLP sequence encoder with `layers` hidden layers of
// width `hidden` over seqLen x featDim inputs.
func NewMLPSeq(rng *rand.Rand, seqLen, featDim, hidden, layers, outDim int) *MLPSeq {
	sizes := []int{seqLen * featDim}
	for i := 0; i < layers; i++ {
		sizes = append(sizes, hidden)
	}
	sizes = append(sizes, outDim)
	return &MLPSeq{Net: NewMLP(rng, ActReLU, sizes...), dim: outDim}
}

// OutDim implements SeqEncoder.
func (m *MLPSeq) OutDim() int { return m.dim }

// Params implements SeqEncoder.
func (m *MLPSeq) Params() []*tensor.Tensor { return m.Net.Params() }
