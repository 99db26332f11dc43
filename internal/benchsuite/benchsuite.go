// Package benchsuite holds the benchmark bodies shared between `go test
// -bench` (bench_test.go at the repo root) and cmd/perfvec-bench, which runs
// them via testing.Benchmark and records the results in BENCH_N.json so the
// repo's performance trajectory is tracked across PRs. Keeping one body per
// benchmark ensures the CLI and the test harness always measure the same
// code.
package benchsuite

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/perfvec"
	"repro/internal/tensor"
)

// MatMul measures the tensor GEMM backend on a 256x256x256 product. The
// kernels are branch-free in the data, so inputs are filled with nonzero
// values and the result depends only on shape. The output tensor is drawn
// from a reused arena tape, Reset every iteration — the steady-state form
// the training step runs in — so the measured number is the kernel, not the
// per-iteration allocation of a 256x256 result.
func MatMul(b *testing.B) {
	x := tensor.New(256, 256)
	w := tensor.New(256, 256)
	for i := range x.Data {
		x.Data[i] = float32(i%7) + 0.25
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) + 0.5
	}
	tp := tensor.NewTapeArena()
	tensor.MatMul(tp, x, w) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		tensor.MatMul(tp, x, w)
	}
	flops := 2.0 * 256 * 256 * 256
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// syntheticDataset builds a single-program dataset with pseudorandom
// features and targets at the default model scale (FeatDim 51, K 8) — no
// emulator or simulator runs, so benchmarks measure only the training path.
func syntheticDataset(samples int, cfg perfvec.Config) *perfvec.Dataset {
	rng := rand.New(rand.NewSource(42))
	const k = 8
	pd := &perfvec.ProgramData{
		Name: "synthetic", N: samples, FeatDim: cfg.FeatDim, K: k,
		Features: make([]float32, samples*cfg.FeatDim),
		Targets:  make([]float32, samples*k),
		TotalNs:  make([]float64, k),
	}
	for i := range pd.Features {
		pd.Features[i] = rng.Float32()
	}
	for i := range pd.Targets {
		pd.Targets[i] = rng.Float32() * 10
	}
	d, err := perfvec.NewDataset([]*perfvec.ProgramData{pd}, 0.1, 1)
	if err != nil {
		panic(err)
	}
	return d
}

// Batch measures minibatch window assembly (Dataset.Batch) at the trainer's
// default shape: 256 samples x window 8 x 51 features, sharded across the
// worker pool.
func Batch(b *testing.B) {
	cfg := perfvec.DefaultConfig()
	d := syntheticDataset(8192, cfg)
	ids := make([]int, cfg.BatchSize)
	for i := range ids {
		ids[i] = i * 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Batch(nil, ids, cfg.Window, cfg.TargetScale, cfg.BatchWorkers)
	}
}

// TrainStepHistogram runs one serial training step of the default model on
// the synthetic benchmark dataset and returns the op-record kind histogram
// of its tape: the op mix of the step's autodiff graph, exposed by
// cmd/perfvec-bench -tape-histogram for profiling graph shape at paper
// scale. The step is forced serial (GradWorkers=1) so a single tape records
// the whole minibatch graph.
func TrainStepHistogram() map[string]int {
	cfg := perfvec.DefaultConfig()
	cfg.Epochs = 1
	cfg.GradWorkers = 1
	d := syntheticDataset(4096, cfg)
	tr := perfvec.NewTrainer(perfvec.NewFoundation(cfg), 8)
	opt := nn.NewAdam(cfg.LR)
	batch := make([]int, cfg.BatchSize)
	for i := range batch {
		batch[i] = i
	}
	tr.Step(d, batch, opt)
	return tr.TapeHistogram()
}

// TrainStep measures one reuse-form training step (batch assembly, forward,
// backward, optimizer) of the default LSTM-2-32 model on a 256-sample
// minibatch — the hot loop of the whole reproduction. Two warm-up steps run
// before the timer starts, filling the tape's tensor arena, slab pool, and
// record storage, so the reported allocs/op is the steady state the typed
// op-record tape promises (zero) rather than the amortized warm-up;
// bench_budget.json gates that number in CI.
func TrainStep(b *testing.B) {
	cfg := perfvec.DefaultConfig()
	cfg.Epochs = 1
	d := syntheticDataset(4096, cfg)
	tr := perfvec.NewTrainer(perfvec.NewFoundation(cfg), 8)
	opt := nn.NewAdam(cfg.LR)
	batch := make([]int, cfg.BatchSize)
	for i := range batch {
		batch[i] = i
	}
	tr.Step(d, batch, opt) // warm-up: populate the arenas and record storage
	tr.Step(d, batch, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(d, batch, opt)
	}
}
