package perfvec

import (
	"math"
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
