package perfvec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// tinyConfig keeps unit-test training fast.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 12
	cfg.RepDim = 12
	cfg.Window = 4
	cfg.Epochs = 4
	cfg.BatchSize = 32
	return cfg
}

// tinyData builds a small dataset from two kernels on three uarchs.
func tinyData(t *testing.T, maxInsts int) ([]*ProgramData, []*uarch.Config) {
	t.Helper()
	cfgs := uarch.Predefined()[:3]
	var bs []bench.Benchmark
	for _, n := range []string{"999.specrand", "527.cam4"} {
		b, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	pds, err := CollectAll(bs, cfgs, 1, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	return pds, cfgs
}

func TestCollectProgramDataShapes(t *testing.T) {
	pds, cfgs := tinyData(t, 2000)
	for _, pd := range pds {
		if pd.K != len(cfgs) {
			t.Fatalf("%s: K = %d, want %d", pd.Name, pd.K, len(cfgs))
		}
		if len(pd.Features) != pd.N*pd.FeatDim {
			t.Fatalf("%s: feature size mismatch", pd.Name)
		}
		if len(pd.Targets) != pd.N*pd.K {
			t.Fatalf("%s: target size mismatch", pd.Name)
		}
		// Targets must integrate to the simulator's total time per uarch.
		for j := 0; j < pd.K; j++ {
			var sum float64
			for i := 0; i < pd.N; i++ {
				sum += float64(pd.Targets[i*pd.K+j])
			}
			total := sum / sim.TickPerNs
			if math.Abs(total-pd.TotalNs[j]) > 1e-6*math.Max(1, pd.TotalNs[j]) {
				t.Fatalf("%s uarch %d: incremental sum %.3f != total %.3f",
					pd.Name, j, total, pd.TotalNs[j])
			}
		}
	}
}

// TestCompositionTheorem verifies §III-B exactly: for ANY representations
// and any table, sum-then-dot equals dot-then-sum.
func TestCompositionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, d := 200, 16
	reps := tensor.Randn(rng, 1, n, d)
	m := tensor.Randn(rng, 1, 1, d)

	// Per-instruction predictions, summed.
	var perInst float64
	for i := 0; i < n; i++ {
		var dot float64
		for j := 0; j < d; j++ {
			dot += float64(reps.At(i, j)) * float64(m.At(0, j))
		}
		perInst += dot
	}
	// Composed program representation, one dot product.
	progRep := SumReps(reps)
	var composed float64
	for j := 0; j < d; j++ {
		composed += float64(progRep[j]) * float64(m.At(0, j))
	}
	if math.Abs(perInst-composed) > 1e-3*math.Max(1, math.Abs(perInst)) {
		t.Fatalf("composition violated: per-inst %v vs composed %v", perInst, composed)
	}
}

func TestDatasetSplit(t *testing.T) {
	pds, _ := tinyData(t, 1500)
	d, err := NewDataset(pds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pds {
		total += p.N
	}
	if d.TrainSize()+d.ValSize() != total {
		t.Fatalf("split sizes %d+%d != %d", d.TrainSize(), d.ValSize(), total)
	}
	if d.ValSize() < total/20 {
		t.Fatalf("validation set too small: %d", d.ValSize())
	}
	sub := d.Subsample(0.5)
	if sub.TrainSize() >= d.TrainSize() {
		t.Fatal("Subsample did not shrink the training set")
	}
}

func TestBatchWindowPadding(t *testing.T) {
	pds, _ := tinyData(t, 500)
	d, err := NewDataset(pds[:1], 0.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sample id 0 = instruction 0: all window slots except the last must be
	// zero-padded.
	xs, targets := d.Batch(nil, []int{0}, 4, 1, 1)
	if len(xs) != 4 {
		t.Fatalf("window length %d, want 4", len(xs))
	}
	for tt := 0; tt < 3; tt++ {
		for _, v := range xs[tt].Row(0) {
			if v != 0 {
				t.Fatalf("window slot %d not zero-padded", tt)
			}
		}
	}
	nonzero := false
	for _, v := range xs[3].Row(0) {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("current-instruction slot is all zeros")
	}
	if targets.Cols() != d.K {
		t.Fatalf("targets K = %d, want %d", targets.Cols(), d.K)
	}
}

// TestTrainingReducesLoss is the core end-to-end check: joint training of
// the foundation model and the representation table on real simulator data
// must reduce both training and validation loss.
func TestTrainingReducesLoss(t *testing.T) {
	pds, cfgs := tinyData(t, 3000)
	d, err := NewDataset(pds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := NewFoundation(tinyConfig())
	tr := NewTrainer(model, len(cfgs))
	res := tr.Train(d)
	first, last := res.ValLoss[0], res.ValLoss[len(res.ValLoss)-1]
	if last >= first {
		t.Fatalf("validation loss did not drop: %v -> %v", first, last)
	}
	if res.BestEpoch < 0 {
		t.Fatal("no best epoch recorded")
	}
}

// TestTrainedModelPredictsTotalTime checks that after training, the
// composed program representation predicts total execution time within a
// loose tolerance on the *training* programs (seen-program accuracy).
func TestTrainedModelPredictsTotalTime(t *testing.T) {
	pds, cfgs := tinyData(t, 3000)
	d, err := NewDataset(pds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Epochs = 10
	model := NewFoundation(cfg)
	tr := NewTrainer(model, len(cfgs))
	tr.Train(d)

	for _, pd := range pds {
		errs := ProgramErrors(model, tr.Table, pd)
		s := Summarize(pd.Name, errs)
		if s.Mean > 0.5 {
			t.Errorf("%s: mean error %.1f%% too high even for a tiny model", pd.Name, 100*s.Mean)
		}
	}
}

// TestInstructionRepsParallelMatchesSerial pins the inference paths'
// encoder + head against the tape forward for every model kind: the
// parallel, chunked float32 InstructionReps must be bitwise identical to
// one tape Forward over the whole program's windows.
func TestInstructionRepsParallelMatchesSerial(t *testing.T) {
	pds, _ := tinyData(t, 800)
	p := pds[0]
	kinds := []ModelKind{ModelLinear, ModelMLP, ModelLSTM, ModelBiLSTM, ModelGRU, ModelTransformer}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Model = kind
			model := NewFoundation(cfg)
			par := model.InstructionReps(p)
			// Serial reference via WindowsFor over the whole program.
			tp := tensor.NewTapeArena()
			ser := model.Forward(tp, WindowsFor(tp, p, 0, p.N, model.Cfg.Window))
			for i := range par.Data {
				if par.Data[i] != ser.Data[i] {
					t.Fatalf("rep %d differs: %v vs %v (must be bitwise identical)", i, par.Data[i], ser.Data[i])
				}
			}
		})
	}
}

// TestInstructionRepsEmptyProgram pins the empty-program results: neither
// tensor.New nor the coalesced encode accepts zero rows, so InstructionReps
// guards N == 0 itself and returns a 0 x RepDim matrix, and ProgramRep
// returns a zero representation, neither panicking.
func TestInstructionRepsEmptyProgram(t *testing.T) {
	cfg := tinyConfig()
	model := NewFoundation(cfg)
	p := &ProgramData{Name: "empty", FeatDim: cfg.FeatDim}
	reps := model.InstructionReps(p)
	if reps.Rows() != 0 || reps.Cols() != cfg.RepDim {
		t.Fatalf("InstructionReps of an empty program is %v, want [0 %d]", reps.Shape, cfg.RepDim)
	}
	rep := model.ProgramRep(p)
	if len(rep) != cfg.RepDim {
		t.Fatalf("ProgramRep of an empty program has %d dims, want %d", len(rep), cfg.RepDim)
	}
	for i, v := range rep {
		if v != 0 {
			t.Fatalf("ProgramRep of an empty program: dim %d = %v, want 0", i, v)
		}
	}
}

func TestFineTuneUnseenUarch(t *testing.T) {
	pds, _ := tinyData(t, 2500)
	d, err := NewDataset(pds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := NewFoundation(tinyConfig())
	tr := NewTrainer(model, pds[0].K)
	tr.Train(d)

	// "Unseen" microarchitectures: two fresh sampled configs.
	newCfgs := uarch.NewSampler(999).SampleSet(2)
	bs, _ := bench.ByName("999.specrand")
	tune, err := CollectProgramData(bs, newCfgs, 1, 2500)
	if err != nil {
		t.Fatal(err)
	}
	frozen := snapshot(model.Params())
	table := FineTuneTable(model, []*ProgramData{tune}, 60, 0.01, 3)
	after := snapshot(model.Params())
	for i := range frozen {
		for j := range frozen[i] {
			if frozen[i][j] != after[i][j] {
				t.Fatal("fine-tuning must not modify the foundation model")
			}
		}
	}
	if table.K() != 2 {
		t.Fatalf("table K = %d, want 2", table.K())
	}
	errs := ProgramErrors(model, table, tune)
	s := Summarize("tune", errs)
	if s.Mean > 0.6 {
		t.Errorf("fine-tuned prediction error %.1f%% unexpectedly high", 100*s.Mean)
	}
}

func TestUarchModelTrainsAndGeneralizes(t *testing.T) {
	pds, cfgs := tinyData(t, 2500)
	d, err := NewDataset(pds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := NewFoundation(tinyConfig())
	tr := NewTrainer(model, len(cfgs))
	tr.Train(d)

	um := NewUarchModel(model.Cfg.RepDim, 24, 5)
	TrainUarchModel(model, um, pds, cfgs, 80, 0.005, 5)
	rep := um.Rep(cfgs[0])
	if len(rep) != model.Cfg.RepDim {
		t.Fatalf("uarch rep dim = %d, want %d", len(rep), model.Cfg.RepDim)
	}
	// The MLP-embedded representation should predict the seen uarchs about
	// as well as the table does (very loose check).
	progRep := model.ProgramRep(pds[0])
	pred := model.PredictTotalNs(progRep, rep)
	truth := pds[0].TotalNs[0]
	if relErr := math.Abs(pred-truth) / truth; relErr > 1.0 {
		t.Errorf("uarch-model prediction off by %.0f%%", 100*relErr)
	}
}

func TestNaiveTrainingAlsoLearns(t *testing.T) {
	pds, cfgs := tinyData(t, 1500)
	d, err := NewDataset(pds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := NewFoundation(tinyConfig())
	tr := NewTrainer(model, len(cfgs))
	tr.Naive = true
	res := tr.Train(d)
	if res.ValLoss[len(res.ValLoss)-1] >= res.ValLoss[0] {
		t.Fatalf("naive training did not reduce loss: %v", res.ValLoss)
	}
}

func TestSummarizeStatistics(t *testing.T) {
	s := Summarize("x", []float64{0.1, 0.2, 0.3})
	if math.Abs(s.Mean-0.2) > 1e-12 || s.Min != 0.1 || s.Max != 0.3 {
		t.Fatalf("bad summary: %+v", s)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Window = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for zero window")
	}
	bad = DefaultConfig()
	bad.TargetScale = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for zero TargetScale")
	}
}

func TestAllModelKindsConstruct(t *testing.T) {
	for _, kind := range []ModelKind{ModelLinear, ModelMLP, ModelLSTM, ModelBiLSTM, ModelGRU, ModelTransformer} {
		cfg := tinyConfig()
		cfg.Model = kind
		f := NewFoundation(cfg)
		if len(f.Params()) == 0 {
			t.Errorf("%s: no parameters", kind)
		}
	}
}
