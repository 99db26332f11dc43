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
	k := tuning[0].K
	table := NewTable(k, f.Cfg.RepDim, seed)

	// Cache representations and scaled targets.
	type cached struct {
		reps    *tensor.Tensor // [N x D]
		targets *tensor.Tensor // [N x K]
	}
	var data []cached
	for _, p := range tuning {
		reps := f.InstructionReps(p)
		targets := tensor.New(p.N, k)
		for i := 0; i < p.N; i++ {
			for j := 0; j < k; j++ {
				targets.Set(i, j, p.Targets[i*k+j]*f.Cfg.TargetScale)
			}
		}
		data = append(data, cached{reps, targets})
	}

	opt := nn.NewAdam(lr)
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
			end := start + batch
			if end > n {
				end = n
			}
			tp.Reset()
			reps := tensor.SliceRows(nil, c.reps, start, end)
			targets := tensor.SliceRows(nil, c.targets, start, end)
			preds := tensor.MatMulBT(tp, reps, table.M)
			loss := nn.MSE(tp, preds, targets)
			tp.Backward(loss)
			opt.Step([]*tensor.Tensor{table.M})
		}
	}
	return table
}
