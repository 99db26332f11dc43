package perfvec

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// FineTuneTable learns representations for *unseen* microarchitectures
// (§V-A "Unseen Microarchitectures"): the pre-trained foundation model is
// frozen and only a fresh representation table is optimized against a small
// tuning dataset (a few seen programs simulated on the new configurations).
//
// Because the foundation model is frozen, each instruction's representation
// is a constant — it is computed once and the table is then fit against the
// cached representations, which is exactly the representation-reuse insight
// applied to fine-tuning.
func FineTuneTable(f *Foundation, tuning []*ProgramData, epochs int, lr float32, seed int64) *Table {
	table := NewTable(tuning[0].K, f.Cfg.RepDim, seed)
	opt := nn.NewAdam(lr)
	fitCachedReps(f, tuning, epochs, seed, func(tp *tensor.Tape, reps, targets *tensor.Tensor) {
		preds := tensor.MatMulBT(tp, reps, table.M)
		tp.Backward(nn.MSE(tp, preds, targets))
		opt.Step([]*tensor.Tensor{table.M})
	})
	return table
}

// fitCachedReps is the training loop FineTuneTable and TrainUarchModel
// share over a frozen foundation model. It computes every tuning program's
// instruction representations and scaled targets once, then for each epoch
// and each program draws a random window of up to 512 rows (seeded by seed)
// and calls step with those rows on a freshly reset tape; step runs the
// forward, backward and optimizer update of whatever is being fit.
func fitCachedReps(f *Foundation, tuning []*ProgramData, epochs int, seed int64, step func(tp *tensor.Tape, reps, targets *tensor.Tensor)) {
	type cached struct {
		reps    *tensor.Tensor // [N x D]
		targets *tensor.Tensor // [N x K]
	}
	data := make([]cached, len(tuning))
	for c, p := range tuning {
		targets := tensor.New(p.N, p.K)
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.K; j++ {
				targets.Set(i, j, p.Targets[i*p.K+j]*f.Cfg.TargetScale)
			}
		}
		data[c] = cached{f.InstructionReps(p), targets}
	}

	rng := rand.New(rand.NewSource(seed))
	const batch = 512
	tp := tensor.NewTapeArena()
	for e := 0; e < epochs; e++ {
		for _, c := range data {
			n := c.reps.Rows()
			start := 0
			if n > batch {
				start = rng.Intn(n - batch)
			}
			end := min(start+batch, n)
			tp.Reset()
			step(tp, tensor.SliceRows(nil, c.reps, start, end), tensor.SliceRows(nil, c.targets, start, end))
		}
	}
}
