package uarch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPredefinedConfigsValidate(t *testing.T) {
	cfgs := Predefined()
	if len(cfgs) != 7 {
		t.Fatalf("predefined count = %d, want 7 (4 OoO + 3 in-order)", len(cfgs))
	}
	ooo, inorder := 0, 0
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Core == OutOfOrder {
			ooo++
		} else {
			inorder++
		}
	}
	if ooo != 4 || inorder != 3 {
		t.Fatalf("core mix ooo=%d inorder=%d, want 4/3", ooo, inorder)
	}
}

func TestPredefinedNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Predefined() {
		if seen[c.Name] {
			t.Fatalf("duplicate predefined name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestSamplerProducesValidConfigs(t *testing.T) {
	f := func(seed int64) bool {
		s := NewSampler(seed)
		for i := 0; i < 4; i++ {
			if err := s.Sample(OutOfOrder).Validate(); err != nil {
				t.Logf("ooo: %v", err)
				return false
			}
			if err := s.Sample(InOrder).Validate(); err != nil {
				t.Logf("inorder: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a := NewSampler(42).Sample(OutOfOrder)
	b := NewSampler(42).Sample(OutOfOrder)
	if a.Name != b.Name {
		t.Fatalf("same seed produced different configs: %q vs %q", a.Name, b.Name)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("param %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestSampleSetMix(t *testing.T) {
	cfgs := NewSampler(7).SampleSet(70)
	if len(cfgs) != 70 {
		t.Fatalf("got %d configs, want 70", len(cfgs))
	}
	inorder := 0
	for _, c := range cfgs {
		if c.Core == InOrder {
			inorder++
		}
	}
	if inorder != 10 {
		t.Fatalf("in-order share = %d/70, want 10 (paper's 60/10 split)", inorder)
	}
}

func TestTrainingSetIncludesPredefined(t *testing.T) {
	cfgs := TrainingSet(1, 70)
	if len(cfgs) != 77 {
		t.Fatalf("training set size = %d, want 77 (70 sampled + 7 predefined)", len(cfgs))
	}
}

func TestParamsLengthAndDeterminism(t *testing.T) {
	for _, c := range Predefined() {
		p := c.Params()
		if len(p) != NumParams {
			t.Fatalf("%s: params length %d, want %d", c.Name, len(p), NumParams)
		}
	}
}

func TestParamsDistinguishConfigs(t *testing.T) {
	a := A7Like().Params()
	b := oooServer().Params()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct configs produced identical parameter vectors")
	}
}

func TestCacheSets(t *testing.T) {
	c := Cache{SizeKB: 32, Assoc: 4, LineBytes: 64}
	if got := c.Sets(); got != 128 {
		t.Fatalf("Sets = %d, want 128", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	c := A7Like()
	c.FreqMHz = 50
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation failure for 50 MHz")
	}
	c = A7Like()
	c.L1D.LineBytes = 48 // not a power of two
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation failure for non-power-of-two line")
	}
	c = A7Like()
	c.IntALU.Count = 0
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation failure for zero ALUs")
	}
	// A zero divisor of Cache.Sets is an error, not a panic.
	c = A7Like()
	c.L2.Assoc = 0
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation failure for zero associativity")
	}
	c = A7Like()
	c.L1I.LineBytes = 0
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation failure for zero line size")
	}
	// Every size the simulator allocates from is bounded, so a config read
	// from a file cannot ask for a terabyte of cache sets.
	for name, edit := range map[string]func(*Config){
		"1 TB L2":       func(c *Config) { c.L2.SizeKB = 1 << 30 },
		"64 MB L2":      func(c *Config) { c.L2.SizeKB = 64 * 1024 },
		"2 MB L1D":      func(c *Config) { c.L1D.SizeKB = 2048 },
		"2 MB L1I":      func(c *Config) { c.L1I.SizeKB = 2048 },
		"1M ALUs":       func(c *Config) { c.IntALU.Count = 1 << 20 },
		"17 mem ports":  func(c *Config) { c.MemPort.Count = 17 },
		"1M RAS":        func(c *Config) { c.RASEntries = 1 << 20 },
		"negative RAS":  func(c *Config) { c.RASEntries = -1 },
		"1M ROB":        func(c *Config) { c.ROBSize = 1 << 20 },
		"1M LQ":         func(c *Config) { c.LQSize = 1 << 20 },
		"1M SQ":         func(c *Config) { c.SQSize = 1 << 20 },
		"int-max cache": func(c *Config) { c.L1D.SizeKB = math.MaxInt },
	} {
		c := A7Like()
		edit(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation failure", name)
		}
	}
}

// TestValidateBoundsCoverGenerators pins the other side of Validate's upper
// bounds: every predefined config, 10k sampled ones of each core kind and a
// 10k-config generated design space all pass.
func TestValidateBoundsCoverGenerators(t *testing.T) {
	cfgs := Predefined()
	s := NewSampler(3)
	for i := 0; i < 10_000; i++ {
		cfgs = append(cfgs, s.Sample(CoreKind(i%2)))
	}
	cfgs = append(cfgs, GenerateSpace(SpaceSpec{Size: 10_000, Seed: 3})...)
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCycleNs(t *testing.T) {
	c := A7Like()
	c.FreqMHz = 2000
	if got := c.CycleNs(); got != 0.5 {
		t.Fatalf("CycleNs = %v, want 0.5", got)
	}
}
