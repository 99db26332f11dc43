package perfvec

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/uarch"
)

func TestAttributionSumsToWholeProgram(t *testing.T) {
	cfgs := uarch.Predefined()[:2]
	b, err := bench.ByName("999.specrand")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.Trace(1, 1200)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := CollectProgramData(b, cfgs, 1, 1200)
	if err != nil {
		t.Fatal(err)
	}
	model := NewFoundation(tinyConfig())
	uarchRep := NewTable(2, model.Cfg.RepDim, 3).Rep(0)

	attrs := AttributePC(model, pd, recs, uarchRep)
	whole := model.PredictTotalNs(model.ProgramRep(pd), uarchRep)
	if diff := math.Abs(TotalOf(attrs) - whole); diff > 1e-3*math.Max(1, math.Abs(whole)) {
		t.Fatalf("attribution total %v != whole-program prediction %v", TotalOf(attrs), whole)
	}
	var n int
	for _, a := range attrs {
		n += a.Count
	}
	if n != pd.N {
		t.Fatalf("attributed %d instructions, trace has %d", n, pd.N)
	}
	// Sorted by descending attributed time.
	for i := 1; i < len(attrs); i++ {
		if attrs[i].PredictedNs > attrs[i-1].PredictedNs+1e-9 {
			t.Fatal("attributions not sorted")
		}
	}
}

func TestAttributeOpBucketsByClass(t *testing.T) {
	cfgs := uarch.Predefined()[:2]
	b, err := bench.ByName("527.cam4")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.Trace(1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := CollectProgramData(b, cfgs, 1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	model := NewFoundation(tinyConfig())
	uarchRep := NewTable(2, model.Cfg.RepDim, 3).Rep(0)
	attrs := AttributeOp(model, pd, recs, uarchRep)
	if len(attrs) < 3 {
		t.Fatalf("cam4 should span several op classes, got %d buckets", len(attrs))
	}
}

func TestProgramDataRoundTrip(t *testing.T) {
	cfgs := uarch.Predefined()[:2]
	b, err := bench.ByName("557.xz")
	if err != nil {
		t.Fatal(err)
	}
	pd, err := CollectProgramData(b, cfgs, 1, 800)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pd.gob")
	fp, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveProgramData(fp, pd); err != nil {
		t.Fatal(err)
	}
	fp.Close()

	fp, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	got, err := LoadProgramData(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != pd.Name || got.N != pd.N || got.K != pd.K {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range pd.Features {
		if got.Features[i] != pd.Features[i] {
			t.Fatal("features differ after round trip")
		}
	}
	for i := range pd.Targets {
		if got.Targets[i] != pd.Targets[i] {
			t.Fatal("targets differ after round trip")
		}
	}
}

func TestLoadProgramDataRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gob")
	pd := &ProgramData{Name: "x", N: 10, FeatDim: 51, K: 2,
		Features: make([]float32, 3), Targets: make([]float32, 20)}
	fp, _ := os.Create(path)
	if err := SaveProgramData(fp, pd); err != nil {
		t.Fatal(err)
	}
	fp.Close()
	fp, _ = os.Open(path)
	defer fp.Close()
	if _, err := LoadProgramData(fp); err == nil {
		t.Fatal("expected corruption error")
	}
}
