package perfvec

import (
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// UarchModel is the microarchitecture representation model of the DSE
// workflow (§VI-A): a small MLP mapping normalized configuration parameters
// to a d-dimensional representation, so that *unseen* points of a design
// space can be embedded without simulation. It is trained with the
// foundation model frozen, like FineTuneTable but generalizing over
// configuration parameters instead of memorizing a table.
type UarchModel struct {
	Net    *nn.MLP
	RepDim int
	// Normalization of the input parameter vector (fit on training data).
	mean, std []float32
}

// NewUarchModel builds the 2-layer MLP the paper uses for cache-size DSE
// ("a simple 2-layer MLP").
func NewUarchModel(repDim, hidden int, seed int64) *UarchModel {
	rng := rand.New(rand.NewSource(seed))
	return &UarchModel{
		Net:    nn.NewMLP(rng, nn.ActReLU, uarch.NumParams, hidden, repDim),
		RepDim: repDim,
	}
}

// fitNorm computes feature-wise standardization over the training configs.
func (u *UarchModel) fitNorm(cfgs []*uarch.Config) {
	n := len(cfgs)
	u.mean = make([]float32, uarch.NumParams)
	u.std = make([]float32, uarch.NumParams)
	cols := make([][]float32, n)
	for i, c := range cfgs {
		cols[i] = c.Params()
		for j, v := range cols[i] {
			u.mean[j] += v
		}
	}
	for j := range u.mean {
		u.mean[j] /= float32(n)
	}
	for _, p := range cols {
		for j, v := range p {
			d := v - u.mean[j]
			u.std[j] += d * d
		}
	}
	for j := range u.std {
		u.std[j] = float32(math.Sqrt(float64(u.std[j]/float32(n)))) + 1e-6
	}
}

// inputs builds the normalized [K x NumParams] matrix for configs.
func (u *UarchModel) inputs(cfgs []*uarch.Config) *tensor.Tensor {
	in := tensor.New(len(cfgs), uarch.NumParams)
	for i, c := range cfgs {
		row := in.Row(i)
		for j, v := range c.Params() {
			row[j] = (v - u.mean[j]) / u.std[j]
		}
	}
	return in
}

// Rep embeds a single configuration.
func (u *UarchModel) Rep(cfg *uarch.Config) []float32 {
	out := u.Net.Forward(nil, u.inputs([]*uarch.Config{cfg}))
	return out.Row(0)
}

// Calibrate fits the input normalization on cfgs without training — what an
// untrained (or separately loaded) model needs before Rep/Reps32 can embed
// anything. TrainUarchModel calls the same fit internally.
func (u *UarchModel) Calibrate(cfgs []*uarch.Config) { u.fitNorm(cfgs) }

// Calibrated reports whether the input normalization has been fit (by
// Calibrate or TrainUarchModel) — the precondition of Rep and Reps32.
func (u *UarchModel) Calibrated() bool { return len(u.mean) == uarch.NumParams }

// Reps32 embeds every configuration in one batched forward-only pass on the
// slab and returns the [K x RepDim] candidate representation matrix — the
// batched twin of K Rep calls. Row i is bitwise identical to Rep(cfgs[i]):
// the normalization applies the same float32 expression per element, and the
// forward-only MLP computes each output row as the same FMA chains
// regardless of how many other rows share the pass (the GEMM engine's
// row-invariance contract). The matrix lives on the slab: valid until its
// next Reset, like every Slab32 tensor.
//
//perfvec:hotpath
func (u *UarchModel) Reps32(s *tensor.Slab32, cfgs []*uarch.Config) tensor.Tensor32 {
	if len(u.mean) != uarch.NumParams {
		panic("perfvec: UarchModel not calibrated")
	}
	in := s.Mat(len(cfgs), uarch.NumParams)
	uarch.Features(cfgs, in.Data)
	for i := 0; i < in.R; i++ {
		row := in.Row(i)
		for j, m := range u.mean {
			row[j] = (row[j] - m) / u.std[j]
		}
	}
	return u.Net.Forward32(s, in)
}

// TrainUarchModel fits the model on tuning data gathered from trainCfgs
// (which must be the K microarchitectures of the tuning ProgramData, in
// order). The foundation model stays frozen; instruction representations are
// cached once by the loop FineTuneTable also runs (fitCachedReps).
func TrainUarchModel(f *Foundation, u *UarchModel, tuning []*ProgramData, trainCfgs []*uarch.Config, epochs int, lr float32, seed int64) {
	u.fitNorm(trainCfgs)
	in := u.inputs(trainCfgs)
	opt := nn.NewAdam(lr)
	fitCachedReps(f, tuning, epochs, seed, func(tp *tensor.Tape, reps, targets *tensor.Tensor) {
		m := u.Net.Forward(tp, in) // [K x D]
		preds := tensor.MatMulBT(tp, reps, m)
		tp.Backward(nn.MSE(tp, preds, targets))
		opt.Step(u.Net.Params())
	})
}
