package bench

import (
	"testing"

	"repro/internal/features"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uarch"
)

func TestSuiteSplitMatchesTableII(t *testing.T) {
	if n := len(Training()); n != 9 {
		t.Fatalf("training benchmarks = %d, want 9", n)
	}
	if n := len(Testing()); n != 8 {
		t.Fatalf("testing benchmarks = %d, want 8", n)
	}
	if n := len(All()); n != 17 {
		t.Fatalf("total benchmarks = %d, want 17", n)
	}
}

func TestNamesUniqueAndSpecStyle(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate benchmark name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"505.mcf", "519.lbm", "999.specrand", "500.perlbench"} {
		if !seen[want] {
			t.Fatalf("missing benchmark %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("505.mcf")
	if err != nil || b.Name != "505.mcf" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestAllBenchmarksProduceTraces executes every kernel end to end: the
// single most important integration check for the suite.
func TestAllBenchmarksProduceTraces(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			recs, err := b.Trace(1, 50000)
			if err != nil {
				t.Fatalf("trace failed: %v", err)
			}
			if len(recs) < 1000 {
				t.Fatalf("trace too short: %d instructions", len(recs))
			}
			// Traces must featurize and simulate cleanly.
			feats := features.ExtractAll(recs[:1000])
			if len(feats) != 1000*features.NumFeatures {
				t.Fatal("featurization size mismatch")
			}
			res := sim.Simulate(uarch.A7Like(), recs[:1000], false)
			if res.TotalNs <= 0 {
				t.Fatal("simulation produced zero time")
			}
		})
	}
}

func TestTraceDeterminism(t *testing.T) {
	b, _ := ByName("531.deepsjeng")
	a1, err := b.Trace(1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.Trace(1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatal("trace lengths differ")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestBehaviouralSignatures checks that the kernels actually exhibit the
// behaviours their SPEC counterparts are chosen to represent.
func TestBehaviouralSignatures(t *testing.T) {
	cfg := uarch.A7Like()
	trace := func(name string) ([]float64, *sim.Result) {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := b.Trace(1, 30000)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Simulate(cfg, recs, false)
		var loads, branches, fp float64
		for i := range recs {
			if recs[i].IsLoad() {
				loads++
			}
			if recs[i].IsBranch() {
				branches++
			}
			switch recs[i].Op {
			case isa.FPALU, isa.FPMul, isa.FPDiv:
				fp++
			}
		}
		n := float64(len(recs))
		return []float64{loads / n, branches / n, fp / n}, res
	}

	mcfMix, mcfRes := trace("505.mcf")
	lbmMix, _ := trace("519.lbm")
	randMix, randRes := trace("999.specrand")

	// mcf: load-heavy and cache-hostile.
	if mcfMix[0] < 0.2 {
		t.Errorf("mcf load fraction %v, want > 0.2", mcfMix[0])
	}
	missRate := float64(mcfRes.Stats.Mem.L1DMisses) / float64(mcfRes.Stats.Mem.L1DAccesses)
	if missRate < 0.2 {
		t.Errorf("mcf L1D miss rate %v, want > 0.2 (pointer chasing)", missRate)
	}
	// specrand: almost no memory traffic, highly predictable branches.
	if randMix[0] > 0.05 {
		t.Errorf("specrand load fraction %v, want ~0", randMix[0])
	}
	brRate := float64(randRes.Stats.Mispredicts) / float64(randRes.Stats.Branches)
	if brRate > 0.05 {
		t.Errorf("specrand mispredict rate %v, want < 5%%", brRate)
	}
	// lbm: FP streaming.
	if lbmMix[2] < 0.15 {
		t.Errorf("lbm FP fraction %v, want > 0.15", lbmMix[2])
	}
}

func TestFPFlagMatchesTableII(t *testing.T) {
	fpNames := map[string]bool{
		"527.cam4": true, "538.imagick": true, "544.nab": true,
		"549.fotonik3d": true, "507.cactuBSSN": true, "508.namd": true,
		"519.lbm": true, "521.wrf": true,
	}
	for _, b := range All() {
		if b.FP != fpNames[b.Name] {
			t.Errorf("%s: FP flag = %v, want %v", b.Name, b.FP, fpNames[b.Name])
		}
	}
}

func TestScaleGrowsTraces(t *testing.T) {
	b, _ := ByName("527.cam4")
	small, err := b.Trace(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	large, err := b.Trace(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(large) <= len(small) {
		t.Fatalf("scale 2 trace (%d) not longer than scale 1 (%d)", len(large), len(small))
	}
}

func TestPerlbenchUsesIndirectBranches(t *testing.T) {
	b, _ := ByName("500.perlbench")
	recs, err := b.Trace(1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	ind := 0
	for i := range recs {
		if recs[i].Op == isa.BranchInd {
			ind++
		}
	}
	if ind < 100 {
		t.Fatalf("perlbench indirect branches = %d, want >= 100 (interpreter dispatch)", ind)
	}
}

// TestStreamMatchesTrace pins the two ways of running a benchmark to each
// other: for every registered benchmark, Stream must yield exactly the
// records of Trace at the same budget — truncated at the budget, or ending
// with the program (548.exchange2 retires fewer than 20000 instructions).
func TestStreamMatchesTrace(t *testing.T) {
	for _, b := range All() {
		for _, budget := range []int{1, 700, 20000} {
			ref, err := b.Trace(1, budget)
			if err != nil {
				t.Fatalf("%s/%d: trace: %v", b.Name, budget, err)
			}
			if len(ref) > budget || (budget <= 700 && len(ref) != budget) {
				t.Fatalf("%s/%d: trace has %d records", b.Name, budget, len(ref))
			}
			src := b.Stream(1, budget)
			var rec trace.Record
			for i := 0; ; i++ {
				ok, err := src.Next(&rec)
				if err != nil {
					t.Fatalf("%s/%d: stream record %d: %v", b.Name, budget, i, err)
				}
				if !ok {
					if i != len(ref) {
						t.Fatalf("%s/%d: stream ended after %d records, trace has %d", b.Name, budget, i, len(ref))
					}
					break
				}
				if i >= len(ref) || rec != ref[i] {
					t.Fatalf("%s/%d: stream record %d differs from trace", b.Name, budget, i)
				}
			}
		}
	}
}
