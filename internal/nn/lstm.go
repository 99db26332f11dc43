package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// lstmLayer is one LSTM layer with combined gate weights.
// Gate order within the 4H block: input, forget, cell, output.
type lstmLayer struct {
	W      *tensor.Tensor // [4H, in+H]
	B      *tensor.Tensor // [4H]
	hidden int
}

func newLSTMLayer(rng *rand.Rand, in, hidden int) *lstmLayer {
	l := &lstmLayer{
		W:      tensor.XavierUniform(rng, 4*hidden, in+hidden),
		B:      tensor.New(4 * hidden),
		hidden: hidden,
	}
	// Initialize the forget-gate bias to 1, the standard trick that keeps
	// gradients flowing early in training.
	for j := hidden; j < 2*hidden; j++ {
		l.B.Data[j] = 1
	}
	return l
}

// LSTM is a (multi-layer, optionally bidirectional) LSTM sequence encoder.
// The encoding is the final hidden state of the top layer; for the
// bidirectional variant it is the concatenation of the final states of the
// forward and backward stacks (width 2H).
type LSTM struct {
	fwd, bwd []*lstmLayer // bwd is nil for unidirectional models
	hidden   int
}

// NewLSTM builds a unidirectional LSTM with `layers` stacked layers of width
// `hidden` over featDim-wide inputs.
func NewLSTM(rng *rand.Rand, featDim, hidden, layers int) *LSTM {
	return newLSTM(rng, featDim, hidden, layers, false)
}

// NewBiLSTM builds a bidirectional LSTM; its output width is 2*hidden.
func NewBiLSTM(rng *rand.Rand, featDim, hidden, layers int) *LSTM {
	return newLSTM(rng, featDim, hidden, layers, true)
}

func newLSTM(rng *rand.Rand, featDim, hidden, layers int, bi bool) *LSTM {
	if layers < 1 {
		panic("nn: LSTM needs at least one layer")
	}
	m := &LSTM{hidden: hidden}
	in := featDim
	for i := 0; i < layers; i++ {
		m.fwd = append(m.fwd, newLSTMLayer(rng, in, hidden))
		in = hidden
	}
	if bi {
		in = featDim
		for i := 0; i < layers; i++ {
			m.bwd = append(m.bwd, newLSTMLayer(rng, in, hidden))
			in = hidden
		}
	}
	return m
}

// OutDim implements SeqEncoder.
func (m *LSTM) OutDim() int {
	if m.bwd != nil {
		return 2 * m.hidden
	}
	return m.hidden
}

// Params implements SeqEncoder.
func (m *LSTM) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.fwd {
		ps = append(ps, l.W, l.B)
	}
	for _, l := range m.bwd {
		ps = append(ps, l.W, l.B)
	}
	return ps
}
