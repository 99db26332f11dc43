package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// encoderBlock is one pre-embedded Transformer encoder layer: multi-head
// self-attention followed by a position-wise feed-forward network, each with
// a residual connection and layer normalization (post-norm, as in the
// original encoder).
type encoderBlock struct {
	Wq, Wk, Wv, Wo *tensor.Tensor // [D, D]
	FF1            *Linear        // D -> ffDim
	FF2            *Linear        // ffDim -> D
	G1, B1, G2, B2 *tensor.Tensor // layernorm gains/biases [D]
	heads, dim     int
}

func newEncoderBlock(rng *rand.Rand, dim, heads, ffDim int) *encoderBlock {
	ones := func() *tensor.Tensor {
		t := tensor.New(dim)
		t.Fill(1)
		return t
	}
	return &encoderBlock{
		Wq:  tensor.XavierUniform(rng, dim, dim),
		Wk:  tensor.XavierUniform(rng, dim, dim),
		Wv:  tensor.XavierUniform(rng, dim, dim),
		Wo:  tensor.XavierUniform(rng, dim, dim),
		FF1: NewLinear(rng, dim, ffDim, true),
		FF2: NewLinear(rng, ffDim, dim, true),
		G1:  ones(), B1: tensor.New(dim),
		G2: ones(), B2: tensor.New(dim),
		heads: heads, dim: dim,
	}
}

func (b *encoderBlock) params() []*tensor.Tensor {
	ps := []*tensor.Tensor{b.Wq, b.Wk, b.Wv, b.Wo}
	ps = append(ps, b.FF1.Params()...)
	ps = append(ps, b.FF2.Params()...)
	return append(ps, b.G1, b.B1, b.G2, b.B2)
}

// Transformer is the Transformer-encoder sequence model from the paper's
// Figure 6 ablation: a linear input embedding with sinusoidal positional
// encoding, a stack of encoder blocks, and the final-position output as the
// sequence encoding.
type Transformer struct {
	Embed  *Linear
	blocks []*encoderBlock
	pos    []*tensor.Tensor // [D] per timestep, fixed (not trained)
	dim    int
}

// NewTransformer builds an encoder with `layers` blocks of width `dim`,
// `heads` attention heads, and a feed-forward width of 2*dim, over sequences
// of exactly seqLen timesteps.
func NewTransformer(rng *rand.Rand, seqLen, featDim, dim, heads, layers int) *Transformer {
	if dim%heads != 0 {
		panic("nn: transformer dim must be divisible by heads")
	}
	t := &Transformer{Embed: NewLinear(rng, featDim, dim, true), dim: dim}
	for i := 0; i < layers; i++ {
		t.blocks = append(t.blocks, newEncoderBlock(rng, dim, heads, 2*dim))
	}
	for p := 0; p < seqLen; p++ {
		pe := tensor.New(dim)
		for i := 0; i < dim; i++ {
			angle := float64(p) / math.Pow(10000, float64(2*(i/2))/float64(dim))
			if i%2 == 0 {
				pe.Data[i] = float32(math.Sin(angle))
			} else {
				pe.Data[i] = float32(math.Cos(angle))
			}
		}
		t.pos = append(t.pos, pe)
	}
	return t
}

// OutDim implements SeqEncoder.
func (t *Transformer) OutDim() int { return t.dim }

// Params implements SeqEncoder. Positional encodings are fixed and excluded.
func (t *Transformer) Params() []*tensor.Tensor {
	ps := t.Embed.Params()
	for _, b := range t.blocks {
		ps = append(ps, b.params()...)
	}
	return ps
}
