package dse

import (
	"repro/internal/perfvec"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// Fleet-scale sweep execution: all programs are evaluated against the
// sweeper's embedded candidate space in one predictor product on its
// pre-packed panels. The per-config path (SweepNaive) is kept as the
// bitwise oracle and the throughput baseline the batched engine is
// benchmarked against.

// SweepPrograms evaluates every program representation against the sweeper's
// embedded candidate space, writing out[p][j] = predicted ns of program p on
// candidate j. The representations are gathered into one [P x RepDim]
// matrix and run as one product (perfvec.Sweeper.SweepBatch): workers == 1
// keeps it on the calling goroutine, any other value lets the tensor worker
// pool split its column strips. Results are bitwise identical at any worker
// count. Returns the number of (program, candidate) predictions made.
//
//perfvec:hotpath
func SweepPrograms(sw *perfvec.Sweeper, progReps [][]float32, out [][]float64, workers int) int {
	sw.SweepBatch(progReps, out, workers == 1)
	return len(progReps) * sw.K()
}

// SweepNaive is the per-config oracle the batched sweep is pinned against:
// every candidate is embedded individually through the tape-based Rep and
// predicted with the single-uarch K=1 predictor — no batching, no
// amortization, no reuse of the embedded space across programs. Each
// out[p][j] is bitwise identical to the batched SweepPrograms result; the
// throughput gap between the two is the benchmark suite's Sweep-vs-naive
// ratio.
func SweepNaive(f *perfvec.Foundation, um *perfvec.UarchModel, cfgs []*uarch.Config, progReps [][]float32, out [][]float64) {
	var s tensor.Slab32
	for pi, pr := range progReps {
		for di, c := range cfgs {
			rep := um.Rep(c)
			s.Reset()
			out[pi][di] = f.PredictTotalNs32(&s, pr, rep)
		}
	}
}
