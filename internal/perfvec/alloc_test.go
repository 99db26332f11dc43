package perfvec

import (
	"runtime"
	"testing"
)

// TestStepReuseSteadyStateAllocFree is the allocation regression test for
// the record-tape training hot path: after the warm-up minibatch, the serial
// training step must perform ZERO heap allocations of any kind — op outputs,
// gradient buffers, and scratch come out of the tape's arena, per-timestep
// tensor slices out of its slab pool, op records out of the retained record
// slice, and every parallel loop dispatches as a typed kernel instead of an
// escaping closure. The pre-arena step allocated ~1840 times; the closure
// tape still allocated ~300 (the backward closures and loop closures this
// PR's typed records and kernels replaced).
func TestStepReuseSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		model ModelKind
		batch int
	}{
		{ModelLSTM, 0},
		{ModelGRU, 0},
		{ModelTransformer, 32}, // smaller batch: per-sample attention is costly
	} {
		t.Run(string(tc.model), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = tc.model
			cfg.Epochs = 1
			if tc.batch > 0 {
				cfg.BatchSize = tc.batch
			}
			tr, d, batch, opt := benchTrainSetupCfg(2048, cfg)
			for i := 0; i < 2; i++ {
				tr.stepReuse(d, batch, opt)
			}
			_, warmGrow, warmMiss := tr.tape.Stats()
			for i := 0; i < 4; i++ {
				tr.stepReuse(d, batch, opt)
			}
			_, grows, after := tr.tape.Stats()
			if after != warmMiss {
				t.Errorf("steady-state step allocated %d tensors/slabs (arena misses %d -> %d); the hot path must be arena-clean", after-warmMiss, warmMiss, after)
			}
			if grows != warmGrow {
				t.Errorf("record storage grew %d times after warm-up; records must be pooled like tensors", grows-warmGrow)
			}

			// Whole-step heap allocations: with the typed op-record tape and
			// kernel dispatch there is nothing left to allocate. The race
			// detector's own allocations break the count, so this assertion
			// runs on uninstrumented builds only (the arena/record checks
			// above cover the race run).
			if raceEnabled {
				return
			}
			avg := testing.AllocsPerRun(6, func() {
				tr.stepReuse(d, batch, opt)
			})
			if avg != 0 {
				t.Errorf("steady-state step performs %.0f heap allocations; the record-tape hot path must allocate zero", avg)
			}
		})
	}
}

// TestStepReuseWorkersSteadyStateAllocFree is the data-parallel variant,
// swept over the gradient-worker counts CI races (1/2/8): each worker owns
// an arena tape and a persistent shard goroutine, and after warm-up no
// worker may miss its arena or grow its record slice again. Since the
// gradient reduction moved from per-parameter closures to the typed
// kGradReduce kernel, the multi-worker step allocates exactly as much as
// the serial one: nothing.
func TestStepReuseWorkersSteadyStateAllocFree(t *testing.T) {
	for _, gw := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "gw1", 2: "gw2", 8: "gw8"}[gw], func(t *testing.T) {
			prev := runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
			cfg := DefaultConfig()
			cfg.Epochs = 1
			cfg.GradWorkers = gw
			tr, d, batch, opt := benchTrainSetupCfg(2048, cfg)
			defer tr.Close() // release the shard-worker goroutines
			misses := func() int {
				total := 0
				if tr.tape != nil {
					_, _, m := tr.tape.Stats()
					total += m
				}
				for _, w := range tr.workers {
					_, g, m := w.tape.Stats()
					total += g + m
				}
				return total
			}
			for i := 0; i < 2; i++ {
				tr.stepReuse(d, batch, opt)
			}
			warm := misses()
			for i := 0; i < 4; i++ {
				tr.stepReuse(d, batch, opt)
			}
			if after := misses(); after != warm {
				t.Errorf("worker arenas/records allocated %d times after warm-up; sharded steps must pool everything too", after-warm)
			}
			if raceEnabled {
				return // see TestStepReuseSteadyStateAllocFree
			}
			avg := testing.AllocsPerRun(6, func() {
				tr.stepReuse(d, batch, opt)
			})
			if avg != 0 {
				t.Errorf("GradWorkers=%d: steady-state step performs %.0f heap allocations; the typed-kernel reduction must allocate zero", gw, avg)
			}
		})
	}
}

// TestTapeHistogramSerialStep checks the profiling hook end to end on a
// known graph: one serial LSTM step must record exactly one LSTMGates and
// one MatMulBTCat per unrolled timestep (layers x window) plus the fixed
// head/predictor/loss tail, the counts must sum to the tape's record count,
// and the histogram must be empty before any serial step has run.
func TestTapeHistogramSerialStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.GradWorkers = 1
	tr, d, batch, opt := benchTrainSetupCfg(2048, cfg)
	if h := tr.TapeHistogram(); len(h) != 0 {
		t.Fatalf("histogram before any step = %v, want empty", h)
	}
	tr.Step(d, batch, opt)
	h := tr.TapeHistogram()
	steps := cfg.Layers * cfg.Window
	if h["LSTMGates"] != steps || h["MatMulBTCat"] != steps {
		t.Errorf("histogram records %d LSTMGates / %d MatMulBTCat, want %d each (layers x window): %v",
			h["LSTMGates"], h["MatMulBTCat"], steps, h)
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if records, _, _ := tr.tape.Stats(); total != records {
		t.Errorf("histogram sums to %d but the tape holds %d records", total, records)
	}
}

// TestLossSteadyStateAllocFree pins the pooled evaluation path: Trainer.Loss
// runs its eval shards on pooled inference encoders, so repeated evaluations
// over the same ids must stop growing their slabs once the pool is warm.
func TestLossSteadyStateAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 1
	tr, d, _, _ := benchTrainSetupCfg(2000, cfg)
	ids := d.train[:600] // multiple eval chunks
	tr.Loss(d, ids)
	tr.Loss(d, ids)
	_, warm := tr.Model.EncoderStats()
	for i := 0; i < 3; i++ {
		tr.Loss(d, ids)
	}
	if _, after := tr.Model.EncoderStats(); after != warm {
		t.Errorf("eval encoders grew their slabs %d times after warm-up; Loss must run on pooled inference arenas", after-warm)
	}
	// The residual per-call overhead (shard dispatch, encoder pool handoff) must
	// stay tiny — far below one allocation per evaluated batch.
	if raceEnabled {
		return // see TestStepReuseSteadyStateAllocFree
	}
	avg := testing.AllocsPerRun(4, func() {
		tr.Loss(d, ids)
	})
	if avg > 8 {
		t.Errorf("steady-state Loss performs %.0f heap allocations per call; the eval path must be pooled", avg)
	}
}

// TestInstructionRepsSteadyStatePooled pins the pooled encoders of
// InstructionReps: after a warm-up pass, repeated representation generation
// over the same program must stop growing the encoders' arenas — the window
// matrices, the per-timestep window list, and every encoder activation are
// reused — leaving only the output matrix (and parallel dispatch
// bookkeeping) as per-call heap traffic. This is the analysis/eval
// analogue of the training step's arena regression tests.
func TestInstructionRepsSteadyStatePooled(t *testing.T) {
	// Serial execution: how many encoders the row ranges borrow depends on
	// scheduler-determined peak concurrency, so at GOMAXPROCS>1 a measured
	// call could outgrow the warm-up's pool nondeterministically. One
	// worker borrows exactly one encoder; concurrency is covered by
	// TestInstructionRepsParallelMatchesSerial.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	tr, d, _, _ := benchTrainSetupCfg(2048, cfg)
	f := tr.Model
	p := d.Programs[0]
	f.InstructionReps(p)
	f.InstructionReps(p)
	_, warm := f.EncoderStats()
	for i := 0; i < 3; i++ {
		f.InstructionReps(p)
	}
	if _, after := f.EncoderStats(); after != warm {
		t.Errorf("encoder arenas grew %d times after warm-up; InstructionReps must run on pooled inference arenas", after-warm)
	}
	if raceEnabled {
		return // see TestStepReuseSteadyStateAllocFree
	}
	avg := testing.AllocsPerRun(4, func() {
		f.InstructionReps(p)
	})
	if avg > 8 {
		t.Errorf("steady-state InstructionReps performs %.0f heap allocations per call; windows and activations must be pooled", avg)
	}
}

// TestLossShardingBitwise checks that sharding Trainer.Loss across the
// worker pool never changes a bit: the per-batch losses and their reduction
// order are fixed, so the value must be identical at any GOMAXPROCS.
func TestLossShardingBitwise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 1
	tr, d, _, _ := benchTrainSetupCfg(2000, cfg)
	ids := d.train[:1000] // four eval chunks
	ref := func() float64 {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		return tr.Loss(d, ids)
	}()
	for _, procs := range []int{2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := tr.Loss(d, ids)
		runtime.GOMAXPROCS(prev)
		if got != ref {
			t.Errorf("GOMAXPROCS=%d: Loss %v != serial %v (must be bitwise identical)", procs, got, ref)
		}
	}
}

// TestTrainingBitwiseAcrossPoolParallelism trains the same model at the same
// GradWorkers count under different GOMAXPROCS values. Batch assembly, the
// fused kernels' chunked loops, the sharded Loss, and the parallel
// element-range gradient reduction all promise bitwise invariance to pool
// parallelism; training losses and final parameters must therefore match
// exactly. Run with -race in CI, this doubles as the race sweep over the
// record tape, the persistent shard workers, and the loss/reduction paths at
// 1/2/8 gradient workers.
func TestTrainingBitwiseAcrossPoolParallelism(t *testing.T) {
	for _, gw := range []int{1, 2, 8} {
		run := func(procs int) ([]float64, [][]float32) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			cfg := DefaultConfig()
			cfg.Hidden, cfg.RepDim, cfg.Window = 12, 12, 4
			cfg.Epochs = 2
			cfg.BatchSize = 64
			cfg.GradWorkers = gw
			tr, d, _, _ := benchTrainSetupCfg(700, cfg)
			defer tr.Close()
			res := tr.Train(d)
			losses := append(res.TrainLoss, res.ValLoss...)
			return losses, snapshot(tr.params())
		}
		serialLoss, serialParams := run(1)
		parallelLoss, parallelParams := run(4)
		for i := range serialLoss {
			if serialLoss[i] != parallelLoss[i] {
				t.Fatalf("GradWorkers=%d: loss %d diverged across GOMAXPROCS: %v vs %v",
					gw, i, serialLoss[i], parallelLoss[i])
			}
		}
		for p := range serialParams {
			for i := range serialParams[p] {
				if serialParams[p][i] != parallelParams[p][i] {
					t.Fatalf("GradWorkers=%d: param %d[%d] diverged: %v vs %v",
						gw, p, i, serialParams[p][i], parallelParams[p][i])
				}
			}
		}
	}
}
