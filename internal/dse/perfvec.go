package dse

import (
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/perfvec"
	"repro/internal/uarch"
)

// PerfVecResult is the outcome of the PerfVec DSE workflow.
type PerfVecResult struct {
	// Selected[p] is the chosen design index for program p.
	Selected []int
	// PredictedNs[p][d] are the predicted execution times.
	PredictedNs [][]float64
	// SimsUsed counts (program, design) simulations spent on tuning data —
	// the only simulation cost PerfVec pays.
	SimsUsed int
	// TrainTime is the wall-clock cost of training the microarchitecture
	// representation model.
	TrainTime time.Duration
	// Uarch is the trained microarchitecture representation model; callers
	// can reuse it to sweep further candidate spaces without re-tuning.
	Uarch *perfvec.UarchModel
	// SweepTime is the wall-clock cost of the prediction phase: one coalesced
	// program encode plus the batched sweeps.
	SweepTime time.Duration
	// SweepConfigs counts (program, design) predictions made in the sweep.
	SweepConfigs int
}

// RunPerfVec executes the three-step DSE workflow of §VI-A:
//  1. sample a few designs and simulate a few (not necessarily target)
//     programs on them to obtain a tuning dataset;
//  2. train a microarchitecture representation model (MLP over config
//     parameters) with the foundation model frozen;
//  3. predict every (program, design) pair and select the
//     objective-minimizing design per program.
//
// The prediction phase is the fleet-scale path: the design space is embedded
// and packed once, every target program is encoded once through the
// coalesced float32 encoder, and all programs' predictions come from one
// product on the packed candidates (SweepPrograms), split across the worker
// pool. Results are identical at any worker count.
func RunPerfVec(
	f *perfvec.Foundation,
	space []Design,
	tuneBenches []bench.Benchmark, // programs used for tuning data (§VI-A: "not necessarily the target programs")
	targets []*perfvec.ProgramData, // featurized target programs (features only)
	sampleDesigns int, // how many designs to simulate for tuning (paper: 18 of 36)
	scale, maxInsts int,
	seed int64,
) (*PerfVecResult, error) {
	rng := rand.New(rand.NewSource(seed))

	// Step 1: sample designs and collect tuning data.
	perm := rng.Perm(len(space))[:sampleDesigns]
	tuneCfgs := make([]*uarch.Config, sampleDesigns)
	for i, di := range perm {
		tuneCfgs[i] = space[di].Config
	}
	tuneData, err := perfvec.CollectAll(tuneBenches, tuneCfgs, scale, maxInsts)
	if err != nil {
		return nil, err
	}
	simsUsed := len(tuneBenches) * sampleDesigns

	// Step 2: train the microarchitecture representation model.
	start := time.Now()
	um := perfvec.NewUarchModel(f.Cfg.RepDim, 32, seed)
	perfvec.TrainUarchModel(f, um, tuneData, tuneCfgs, 120, 0.005, seed)
	trainTime := time.Since(start)

	// Step 3: embed the space once, encode every target once, and predict all
	// pairs with batched sweeps fanned across workers.
	sweepStart := time.Now()
	res := &PerfVecResult{
		Selected:    make([]int, len(targets)),
		PredictedNs: make([][]float64, len(targets)),
		SimsUsed:    simsUsed,
		TrainTime:   trainTime,
		Uarch:       um,
	}
	sw := perfvec.NewSweeper(f, um)
	sw.SetSpace(Configs(space))

	progReps := make([][]float32, len(targets))
	for i := range progReps {
		progReps[i] = make([]float32, f.Cfg.RepDim)
	}
	e := f.AcquireEncoder()
	e.EncodePrograms32(targets, progReps)
	f.ReleaseEncoder(e)

	for pi := range targets {
		res.PredictedNs[pi] = make([]float64, len(space))
	}
	res.SweepConfigs = SweepPrograms(sw, progReps, res.PredictedNs, 0)
	res.SweepTime = time.Since(sweepStart)

	for pi := range targets {
		best := 0
		for di, ns := range res.PredictedNs[pi] {
			if Objective(space[di], ns) < Objective(space[best], res.PredictedNs[pi][best]) {
				best = di
			}
		}
		res.Selected[pi] = best
	}
	return res, nil
}
