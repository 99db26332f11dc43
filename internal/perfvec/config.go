// Package perfvec implements the paper's primary contribution: a performance
// modeling framework built on independent, orthogonal program and
// microarchitecture representations (§II).
//
// The foundation model maps a window of microarchitecture-independent
// instruction features to a representation R_i; a program's representation
// is the sum of its instructions' representations (§III-B), and execution
// time is predicted as the bias-free dot product R_p · M with a learned
// microarchitecture representation M. Training uses microarchitecture
// sampling (§IV-A: learn a table of K representations instead of a
// configuration-to-representation model) and instruction representation
// reuse (§IV-B: predict all K latencies from one forward pass).
package perfvec

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/nn"
)

// ModelKind enumerates the foundation-model architectures of the paper's
// Figure 6 ablation.
type ModelKind string

// Foundation-model architectures.
const (
	ModelLinear      ModelKind = "linear"
	ModelMLP         ModelKind = "mlp"
	ModelLSTM        ModelKind = "lstm"
	ModelBiLSTM      ModelKind = "bilstm"
	ModelGRU         ModelKind = "gru"
	ModelTransformer ModelKind = "transformer"
)

var modelKinds = []ModelKind{ModelLinear, ModelMLP, ModelLSTM, ModelBiLSTM, ModelGRU, ModelTransformer}

// Config holds the model and training hyperparameters. The defaults are the
// paper's choices scaled for CPU-only training: the paper's LSTM-2-256
// with a 256-instruction context becomes LSTM-2-32 with an 8-instruction
// context; both are configurable.
type Config struct {
	Model   ModelKind
	Layers  int // encoder depth (paper: 2)
	Hidden  int // encoder width (paper: 256)
	RepDim  int // representation dimensionality d (paper: 256)
	Window  int // context length c+1 (paper: 256)
	FeatDim int // instruction features (Table I: 51)

	// Training.
	BatchSize   int
	Epochs      int
	LR          float32
	LRDecayStep int     // epochs between 10x decays (paper: 10)
	ClipNorm    float32 // gradient clipping for the recurrent models
	Seed        int64
	// EpochSamples caps the number of training samples visited per epoch
	// (0 = the whole training set). The paper streams its full 737M-sample
	// dataset across GPUs; on one CPU, stochastic epoch subsampling trades
	// a little convergence speed for wall-clock feasibility.
	EpochSamples int

	// GradWorkers is the number of data-parallel gradient workers per
	// training step (§IV-C trains data-parallel across GPUs; here each
	// worker is a goroutine with its own arena tape and gradient buffers
	// over shared weights — replicas are built structure-only, skipping the
	// discarded random init). The minibatch is sharded across workers, each
	// computes the gradient of its shard's loss, and the shard gradients
	// are reduced before the optimizer step: element ranges split across
	// the worker pool, workers iterated in fixed order per element, so the
	// reduction parallelizes while every element still accumulates in
	// worker order. 0 means GOMAXPROCS; 1 runs the unsharded serial step.
	// Results are bitwise reproducible at a fixed worker count — and
	// invariant to GOMAXPROCS — but differ slightly across counts
	// (shard-reduction rounding), so DefaultConfig pins this to 1; the
	// training CLIs opt into scaling with cores explicitly. Validation-loss
	// evaluation (Trainer.Loss) is independent of this knob: it shards its
	// eval batches across the pool with bitwise-identical results at any
	// parallelism.
	GradWorkers int

	// BatchWorkers is the number of shards window assembly is split into
	// per minibatch (Dataset.batch): contiguous sample ranges dispatched
	// through the tensor worker pool. 0 means GOMAXPROCS; 1 assembles
	// serially. Unlike GradWorkers, the assembled tensors are bitwise
	// identical at any worker count (every output row is an independent
	// copy), so scaling with cores is always numerically safe.
	BatchWorkers int

	// TargetScale multiplies raw incremental latencies (0.1 ns ticks)
	// before they enter the MSE loss, keeping optimization well-scaled.
	// Predictions are divided by it on the way out, so the composition
	// theorem is unaffected (pure linear rescaling).
	TargetScale float32
}

// DefaultConfig returns the scaled-down defaults used across experiments.
func DefaultConfig() Config {
	return Config{
		Model:  ModelLSTM,
		Layers: 2, Hidden: 32, RepDim: 32,
		Window: 8, FeatDim: 51,
		BatchSize: 256, Epochs: 12,
		LR: 1e-3, LRDecayStep: 10, ClipNorm: 5,
		Seed:         1,
		EpochSamples: 0,
		GradWorkers:  1, // numerics independent of the host's core count
		BatchWorkers: 0, // bitwise identical at any count: scale with cores
		TargetScale:  0.05,
	}
}

// Validate checks hyperparameter sanity.
func (c *Config) Validate() error {
	switch {
	case !slices.Contains(modelKinds, c.Model):
		return fmt.Errorf("perfvec: unknown model kind %q (want one of %v)", c.Model, modelKinds)
	case c.Window < 1:
		return fmt.Errorf("perfvec: window %d < 1", c.Window)
	case c.RepDim < 1 || c.Hidden < 1 || c.Layers < 1:
		return fmt.Errorf("perfvec: invalid model dims %d/%d/%d", c.Layers, c.Hidden, c.RepDim)
	case c.BatchSize < 1 || c.Epochs < 1:
		return fmt.Errorf("perfvec: invalid training params")
	case !(c.TargetScale > 0):
		return fmt.Errorf("perfvec: TargetScale must be positive")
	}
	return nil
}

// newEncoder builds the configured sequence encoder.
func (c *Config) newEncoder(rng *rand.Rand) nn.SeqEncoder {
	switch c.Model {
	case ModelLinear:
		return nn.NewLinearSeq(rng, c.Window, c.FeatDim, c.Hidden)
	case ModelMLP:
		return nn.NewMLPSeq(rng, c.Window, c.FeatDim, c.Hidden, c.Layers, c.Hidden)
	case ModelLSTM:
		return nn.NewLSTM(rng, c.FeatDim, c.Hidden, c.Layers)
	case ModelBiLSTM:
		return nn.NewBiLSTM(rng, c.FeatDim, c.Hidden, c.Layers)
	case ModelGRU:
		return nn.NewGRU(rng, c.FeatDim, c.Hidden, c.Layers)
	case ModelTransformer:
		heads := 2
		if c.Hidden%heads != 0 {
			heads = 1
		}
		return nn.NewTransformer(rng, c.Window, c.FeatDim, c.Hidden, heads, c.Layers)
	}
	panic(fmt.Sprintf("perfvec: unknown model kind %q", c.Model))
}

// paramCount is the number of float32 parameters (encoder plus head) a
// model built from c holds, computed in float64 so hostile dims cannot
// overflow it. LoadModel compares it with the payload before it allocates
// anything; TestParamCountMatchesParams pins it to Params().
func (c *Config) paramCount() float64 {
	w, f, h, l := float64(c.Window), float64(c.FeatDim), float64(c.Hidden), float64(c.Layers)
	linear := func(in, out float64) float64 { return in*out + out }
	// A recurrent stack of `gates` gate blocks per layer: the first layer
	// reads the features, the others the layer below.
	recurrent := func(gates float64) float64 {
		return linear(f+h, gates*h) + (l-1)*linear(2*h, gates*h)
	}
	var enc float64
	out := h
	switch c.Model {
	case ModelLinear:
		enc = linear(w*f, h)
	case ModelMLP:
		enc = linear(w*f, h) + l*linear(h, h)
	case ModelLSTM:
		enc = recurrent(4)
	case ModelBiLSTM:
		enc, out = 2*recurrent(4), 2*h
	case ModelGRU:
		enc = recurrent(3)
	case ModelTransformer:
		// Embedding, then per block Wq/Wk/Wv/Wo, the 2h-wide feed-forward
		// pair and two layernorm gain/bias pairs.
		enc = linear(f, h) + l*(4*h*h+linear(h, 2*h)+linear(2*h, h)+4*h)
	}
	return enc + linear(out, float64(c.RepDim))
}
