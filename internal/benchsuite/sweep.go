package benchsuite

import (
	"math/rand"
	"testing"

	"repro/internal/dse"
	"repro/internal/perfvec"
	"repro/internal/uarch"
)

// sweepBenchK is the candidate space size of the sweep benchmark pair —
// above the >= 1024-config floor the batched-vs-naive speedup target is
// stated at.
const sweepBenchK = 2048

// sweepBenchRig builds the fleet-sweep benchmark fixture: a fresh default
// foundation, a calibrated microarchitecture model, a generated candidate
// space of k configurations, and nProgs pseudorandom program
// representations with output rows. The predictor is pure linear algebra
// over representations, so random reps measure exactly what encoded ones
// would.
func sweepBenchRig(k, nProgs int) (*perfvec.Foundation, *perfvec.UarchModel, []*uarch.Config, [][]float32, [][]float64) {
	cfg := perfvec.DefaultConfig()
	f := perfvec.NewFoundation(cfg)
	um := perfvec.NewUarchModel(cfg.RepDim, 24, 5)
	cfgs := uarch.GenerateSpace(uarch.SpaceSpec{Size: k, Seed: 13})
	um.Calibrate(cfgs)
	rng := rand.New(rand.NewSource(31))
	progReps := make([][]float32, nProgs)
	out := make([][]float64, nProgs)
	for i := range progReps {
		progReps[i] = make([]float32, cfg.RepDim)
		for j := range progReps[i] {
			progReps[i][j] = rng.Float32()*2 - 1
		}
		out[i] = make([]float64, k)
	}
	return f, um, cfgs, progReps, out
}

// sweepPrograms measures dse.SweepPrograms at the given worker argument
// over a space packed once, after one warm-up call fills the slab pool.
func sweepPrograms(b *testing.B, k, nProgs, workers int) {
	f, um, cfgs, progReps, out := sweepBenchRig(k, nProgs)
	sw := perfvec.NewSweeper(f, um)
	sw.SetSpace(cfgs)
	dse.SweepPrograms(sw, progReps, out, workers)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += dse.SweepPrograms(sw, progReps, out, workers)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "configs/s")
}

// Sweep measures the batched design-space sweep: candidates embedded and
// packed once, then four programs ranked against all sweepBenchK
// configurations in one product on the calling goroutine. Steady state is
// allocation-free (bench_budget.json pins 0); the configs/s metric against
// SweepNaive is the amortization win the acceptance floor (>= 10x at
// >= 1024 configs) gates.
func Sweep(b *testing.B) { sweepPrograms(b, sweepBenchK, 4, 1) }

// SweepPrograms measures one predict-unseen sweep: 8 programs against a
// 4096-config space, with the product split across the worker pool
// (workers 0). bench_budget.json pins it at 0 allocs/op.
func SweepPrograms(b *testing.B) { sweepPrograms(b, 4096, 8, 0) }

// SweepNaive measures the same (program, candidate) prediction matrix the
// pre-batching way: re-embed every configuration for every program and
// predict with a K=1 GEMM each time. This is the denominator of the
// batched-sweep speedup ratio; its results are the bitwise oracle the sweep
// tests pin against.
func SweepNaive(b *testing.B) {
	f, um, cfgs, progReps, out := sweepBenchRig(sweepBenchK, 4)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		dse.SweepNaive(f, um, cfgs, progReps, out)
		n += len(progReps) * len(cfgs)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "configs/s")
}
