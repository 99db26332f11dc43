package perfvec

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestDataParallelTrainingMatchesSerial shards minibatches across gradient
// workers and checks the result against single-worker training: shard
// gradients are scaled by shard fraction and reduced in worker order, so the
// parallel step optimizes the same full-batch loss. Floating-point reduction
// order differs, so the comparison is tolerance-based, not bitwise.
func TestDataParallelTrainingMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	pds, _ := tinyData(t, 1500)

	run := func(workers int) (*TrainResult, *Trainer) {
		d, err := NewDataset(pds, 0.2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyConfig()
		cfg.GradWorkers = workers
		model := NewFoundation(cfg)
		tr := NewTrainer(model, pds[0].K)
		res := tr.Train(d)
		return res, tr
	}

	serial, _ := run(1)
	parallel, _ := run(3)

	if len(serial.TrainLoss) != len(parallel.TrainLoss) {
		t.Fatalf("epoch count differs: %d vs %d", len(serial.TrainLoss), len(parallel.TrainLoss))
	}
	for e := range serial.TrainLoss {
		s, p := serial.TrainLoss[e], parallel.TrainLoss[e]
		if math.Abs(s-p) > 1e-2*math.Max(1, math.Abs(s)) {
			t.Errorf("epoch %d train loss diverged: serial %.6f parallel %.6f", e, s, p)
		}
	}
	// Both runs must actually learn.
	for name, r := range map[string]*TrainResult{"serial": serial, "parallel": parallel} {
		first, last := r.TrainLoss[0], r.TrainLoss[len(r.TrainLoss)-1]
		if !(last < first) {
			t.Errorf("%s: train loss did not decrease (%.6f -> %.6f)", name, first, last)
		}
	}
}

// TestDataParallelDeterministicAtFixedWorkerCount reruns parallel training
// with identical seeds and worker counts; shard boundaries and the reduction
// order are fixed, so results must be bitwise reproducible.
func TestDataParallelDeterministicAtFixedWorkerCount(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	pds, _ := tinyData(t, 1200)

	run := func() []float64 {
		d, err := NewDataset(pds, 0.2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyConfig()
		cfg.GradWorkers = 3
		cfg.Epochs = 2
		tr := NewTrainer(NewFoundation(cfg), pds[0].K)
		return tr.Train(d).TrainLoss
	}

	first := run()
	second := run()
	for e := range first {
		if first[e] != second[e] {
			t.Fatalf("epoch %d: %v vs %v — parallel training is nondeterministic", e, first[e], second[e])
		}
	}
}

// tapeLoss is the reference validation loss: the training step's own graph
// (Foundation.Forward, MatMulBT against the table, nn.MSE) on an arena
// tape, over the same evalBatch-sized batches Loss evaluates, reduced the
// same way.
func tapeLoss(tr *Trainer, d *Dataset, ids []int) float64 {
	cfg := tr.Model.Cfg
	tp := tensor.NewTapeArena()
	var sum float64
	for from := 0; from < len(ids); from += evalBatch {
		to := min(from+evalBatch, len(ids))
		tp.Reset()
		xs, targets := d.Batch(tp, ids[from:to], cfg.Window, cfg.TargetScale, 1)
		preds := tensor.MatMulBT(tp, tr.Model.Forward(tp, xs), tr.Table.M)
		sum += float64(nn.MSE(tp, preds, targets).Data[0]) * float64(to-from)
	}
	return sum / float64(len(ids))
}

// TestLossMatchesTapeMSE pins Trainer.Loss, which runs on the float32
// inference graph, bitwise to the tape loss for every architecture, at
// several pool sizes, before and after an optimizer step (Loss must read
// the weights in place, as they are when it runs).
func TestLossMatchesTapeMSE(t *testing.T) {
	pds, _ := tinyData(t, 800)
	d, err := NewDataset(pds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := d.train[:2*evalBatch+61] // two full batches and a partial one
	for _, kind := range []ModelKind{ModelLinear, ModelMLP, ModelLSTM, ModelBiLSTM, ModelGRU, ModelTransformer} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Model = kind
			tr := NewTrainer(NewFoundation(cfg), d.K)
			defer tr.Close()
			check := func(when string) {
				want := tapeLoss(tr, d, ids)
				for _, procs := range []int{1, 2, 8} {
					prev := runtime.GOMAXPROCS(procs)
					got := tr.Loss(d, ids)
					runtime.GOMAXPROCS(prev)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, GOMAXPROCS=%d: Loss %v != tape MSE %v (must be bitwise identical)", when, procs, got, want)
					}
				}
			}
			check("initial weights")
			tr.Step(d, d.train[:cfg.BatchSize], nn.NewAdam(cfg.LR))
			check("after one step")
		})
	}
}
