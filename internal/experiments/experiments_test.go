package experiments

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/perfvec"
)

// fastArtifacts builds a shared Fast() artifact cache per test.
func fastArtifacts() *Artifacts {
	return NewArtifacts(Fast(), nil)
}

func TestFig3Runs(t *testing.T) {
	a := fastArtifacts()
	var buf bytes.Buffer
	res, err := Fig3(a, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seen) != 9 || len(res.Unseen) != 8 {
		t.Fatalf("seen/unseen counts = %d/%d, want 9/8", len(res.Seen), len(res.Unseen))
	}
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("missing figure title in output")
	}
	for _, s := range append(res.Seen, res.Unseen...) {
		if s.Mean < 0 || s.Min > s.Max {
			t.Fatalf("%s: inconsistent summary %+v", s.Name, s)
		}
	}
}

func TestFig4MovesWorstProgram(t *testing.T) {
	a := fastArtifacts()
	var buf bytes.Buffer
	res, err := Fig4(a, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == "" {
		t.Fatal("no program moved")
	}
	if len(res.Seen) != 10 || len(res.Unseen) != 7 {
		t.Fatalf("after move: seen/unseen = %d/%d, want 10/7", len(res.Seen), len(res.Unseen))
	}
	for _, s := range res.Unseen {
		if s.Name == res.Moved {
			t.Fatalf("moved program %s still in unseen set", res.Moved)
		}
	}
}

func TestFig5Runs(t *testing.T) {
	a := fastArtifacts()
	var buf bytes.Buffer
	res, err := Fig5(a, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seen) != 9 || len(res.Unseen) != 8 {
		t.Fatalf("summary counts wrong: %d/%d", len(res.Seen), len(res.Unseen))
	}
}

func TestFig6VariantsList(t *testing.T) {
	vs := Fig6Variants(32)
	if len(vs) != 13 {
		t.Fatalf("variant count = %d, want 13 (Figure 6's x-axis)", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
	}
	for _, want := range []string{"Linear-1-32", "Transformer-2-32", "LSTM-2-8", "LSTM-2-128", "LSTM-4-32"} {
		if !names[want] {
			t.Fatalf("missing variant %s", want)
		}
	}
}

func TestVolumeAndFeatureAblations(t *testing.T) {
	a := fastArtifacts()
	var buf bytes.Buffer
	vol, err := Volume(a, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(vol.InstErrors) != 3 {
		t.Fatalf("volume points = %d, want 3", len(vol.InstErrors))
	}
	fa, err := FeatureAblation(a, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if fa.WithFeatures < 0 || fa.WithoutFeatures < 0 {
		t.Fatal("negative errors")
	}
}

func TestTable3Speeds(t *testing.T) {
	a := fastArtifacts()
	var buf bytes.Buffer
	res, err := Table3(a, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimIPS <= 0 || res.SimNetIPS <= 0 || res.PredictNs <= 0 {
		t.Fatalf("non-positive speeds: %+v", res)
	}
	// The central Table III claim: pre-learned PerfVec prediction is orders
	// of magnitude faster than per-instruction approaches.
	perInstNs := 1e9 / res.SimNetIPS * float64(res.TraceInsts)
	if res.PredictNs*100 > perInstNs {
		t.Fatalf("PerfVec prediction (%.0f ns) not >>100x faster than per-instruction (%.0f ns)",
			res.PredictNs, perInstNs)
	}
}

func TestFig8TilingShape(t *testing.T) {
	a := fastArtifacts()
	var buf bytes.Buffer
	res, err := Fig8(a, 16, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tiles) != 8 {
		t.Fatalf("tile points = %d, want 8", len(res.Tiles))
	}
	// The simulator must show the vectorization cliff: tile 4 beats tile 1.
	if res.SimNs[2] >= res.SimNs[0] {
		t.Fatalf("simulator: tile 4 (%v) not faster than tile 1 (%v)", res.SimNs[2], res.SimNs[0])
	}
}

func TestReuseSpeedup(t *testing.T) {
	a := fastArtifacts()
	var buf bytes.Buffer
	res, err := Reuse(a, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse must beat the naive scheme for equal coverage; with K=9 even a
	// modest amortization shows up.
	if res.EffectiveSpeedup < 2 {
		t.Fatalf("effective speedup %.1fx, want >= 2x", res.EffectiveSpeedup)
	}
}

// TestTierErrorLedger judges the numeric tiers the way the paper judges a
// model — by prediction error of program time, not by drift in
// representation space. On the Fast() artifacts it logs Fig. 3-style error
// (seen and unseen programs on the seen microarchitectures) and Fig. 5-style
// error (the same programs on unseen microarchitectures through the
// fine-tuned table) for the float64 oracle, the f32 serving tier and the
// int8 serving tier. The f32 column is Fig. 3/Fig. 5 itself (its encode is
// bitwise ProgramRep), and it must match the oracle to 1e-6: the f64 tier
// buys nothing measurable, which is why it is a reference, not a serving
// tier. int8 must stay within two percentage points of f32 (the Fast()
// ledger's widest gap is 0.94 points, on Fig. 5's seen programs).
func TestTierErrorLedger(t *testing.T) {
	a := fastArtifacts()
	f3, err := Fig3(a, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Fig5(a, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	model, table, err := a.Model()
	if err != nil {
		t.Fatal(err)
	}
	seen, err := a.TrainData()
	if err != nil {
		t.Fatal(err)
	}
	unseen, err := a.TestData()
	if err != nil {
		t.Fatal(err)
	}
	seen5, err := perfvec.CollectAll(bench.Training(), f5.Uarchs, a.Opts.Scale, a.Opts.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	unseen5, err := perfvec.CollectAll(bench.Testing(), f5.Uarchs, a.Opts.Scale, a.Opts.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}

	cols := []string{"fig3 seen", "fig3 unseen", "fig5 seen", "fig5 unseen"}
	ledger := map[string][]float64{}
	for _, tier := range []string{"f64", "f32", "int8"} {
		ledger[tier] = []float64{
			tierError(model, table, seen, tier),
			tierError(model, table, unseen, tier),
			tierError(model, f5.Table, seen5, tier),
			tierError(model, f5.Table, unseen5, tier),
		}
		t.Logf("%-4s  fig3 seen %.6f%%  unseen %.6f%%  |  fig5 seen %.6f%%  unseen %.6f%%", tier,
			100*ledger[tier][0], 100*ledger[tier][1], 100*ledger[tier][2], 100*ledger[tier][3])
	}
	figures := []float64{f3.MeanSeen(), f3.MeanUnseen(), meanOf(f5.Seen), meanOf(f5.Unseen)}
	for i, col := range cols {
		f64, f32, q8 := ledger["f64"][i], ledger["f32"][i], ledger["int8"][i]
		if f32 != figures[i] {
			t.Errorf("%s: f32 tier error %v differs from the figure's %v", col, f32, figures[i])
		}
		if d := math.Abs(f32 - f64); d > 1e-6 {
			t.Errorf("%s: |f32 - f64| = %.3g > 1e-6 (f32 %v, f64 %v)", col, d, f32, f64)
		}
		if d := math.Abs(q8 - f32); d > 2e-2 {
			t.Errorf("%s: |int8 - f32| = %.3g > 2e-2 (int8 %v, f32 %v)", col, d, q8, f32)
		}
	}
}

// tierError is the figures' mean-of-program-means error with the program
// representations encoded by one numeric tier: "f64" (the oracle), "f32"
// or "int8".
func tierError(f *perfvec.Foundation, table *perfvec.Table, pds []*perfvec.ProgramData, tier string) float64 {
	d := f.Cfg.RepDim
	preds := make([][]float64, len(pds)) // [program][uarch] predicted ns
	if tier == "f64" {
		reps := make([][]float64, len(pds))
		for i := range reps {
			reps[i] = make([]float64, d)
		}
		f.EncodePrograms64(pds, reps)
		for i, rep := range reps {
			for j := 0; j < table.K(); j++ {
				preds[i] = append(preds[i], f.PredictTotalNs64(rep, table.Rep(j)))
			}
		}
	} else {
		reps := make([][]float32, len(pds))
		for i := range reps {
			reps[i] = make([]float32, d)
		}
		e := f.AcquireEncoder()
		if tier == "int8" {
			e.EncodeProgramsQ8(pds, reps)
		} else {
			e.EncodePrograms32(pds, reps)
		}
		f.ReleaseEncoder(e)
		for i, rep := range reps {
			for j := 0; j < table.K(); j++ {
				preds[i] = append(preds[i], f.PredictTotalNs(rep, table.Rep(j)))
			}
		}
	}
	sums := make([]perfvec.ErrorSummary, len(pds))
	for i, pd := range pds {
		errs := make([]float64, table.K())
		for j, pred := range preds[i] {
			if truth := pd.TotalNs[j]; truth != 0 {
				errs[j] = math.Abs(pred-truth) / truth
			}
		}
		sums[i] = perfvec.Summarize(pd.Name, errs)
	}
	return meanOf(sums)
}
