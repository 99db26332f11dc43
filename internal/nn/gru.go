package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// gruLayer is one GRU layer. Update and reset gates share a combined weight
// matrix; the candidate state has its own because it sees the reset-scaled
// hidden state.
type gruLayer struct {
	Wzr    *tensor.Tensor // [2H, in+H]
	Bzr    *tensor.Tensor // [2H]
	Wn     *tensor.Tensor // [H, in+H]
	Bn     *tensor.Tensor // [H]
	hidden int
}

func newGRULayer(rng *rand.Rand, in, hidden int) *gruLayer {
	return &gruLayer{
		Wzr:    tensor.XavierUniform(rng, 2*hidden, in+hidden),
		Bzr:    tensor.New(2 * hidden),
		Wn:     tensor.XavierUniform(rng, hidden, in+hidden),
		Bn:     tensor.New(hidden),
		hidden: hidden,
	}
}

// GRU is a multi-layer unidirectional GRU sequence encoder.
type GRU struct {
	layers []*gruLayer
	hidden int
}

// NewGRU builds a GRU with `layers` stacked layers of width `hidden`.
func NewGRU(rng *rand.Rand, featDim, hidden, layers int) *GRU {
	if layers < 1 {
		panic("nn: GRU needs at least one layer")
	}
	m := &GRU{hidden: hidden}
	in := featDim
	for i := 0; i < layers; i++ {
		m.layers = append(m.layers, newGRULayer(rng, in, hidden))
		in = hidden
	}
	return m
}

// OutDim implements SeqEncoder.
func (m *GRU) OutDim() int { return m.hidden }

// Params implements SeqEncoder.
func (m *GRU) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.layers {
		ps = append(ps, l.Wzr, l.Bzr, l.Wn, l.Bn)
	}
	return ps
}
