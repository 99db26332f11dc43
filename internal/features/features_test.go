package features

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/trace"
)

// --- StackDist ---

func TestStackDistFirstAccessCold(t *testing.T) {
	s := NewStackDist(0)
	if d := s.Access(42); d != Cold {
		t.Fatalf("first access distance = %d, want Cold", d)
	}
}

func TestStackDistImmediateReuse(t *testing.T) {
	s := NewStackDist(0)
	s.Access(1)
	if d := s.Access(1); d != 0 {
		t.Fatalf("immediate reuse distance = %d, want 0", d)
	}
}

func TestStackDistCountsUniqueIntervening(t *testing.T) {
	s := NewStackDist(0)
	s.Access(1)
	s.Access(2)
	s.Access(3)
	s.Access(2) // revisits don't add unique keys
	if d := s.Access(1); d != 2 {
		t.Fatalf("distance = %d, want 2 (keys 2 and 3)", d)
	}
}

// refStackDist is a quadratic reference implementation.
type refStackDist struct {
	history []uint64
}

func (r *refStackDist) access(key uint64) int {
	last := -1
	for i := len(r.history) - 1; i >= 0; i-- {
		if r.history[i] == key {
			last = i
			break
		}
	}
	defer func() { r.history = append(r.history, key) }()
	if last == -1 {
		return Cold
	}
	uniq := map[uint64]bool{}
	for _, k := range r.history[last+1:] {
		uniq[k] = true
	}
	return len(uniq)
}

func TestStackDistMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fast := NewStackDist(0)
		ref := &refStackDist{}
		for i := 0; i < 500; i++ {
			key := uint64(rng.Intn(40))
			if fast.Access(key) != ref.access(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStackDistCompaction(t *testing.T) {
	// Force many compactions with a tracker far smaller than the stream.
	fast := NewStackDist(0) // floor = 1024
	ref := &refStackDist{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		key := uint64(rng.Intn(100))
		got, want := fast.Access(key), ref.access(key)
		if got != want {
			t.Fatalf("access %d key %d: got %d, want %d", i, key, got, want)
		}
	}
	if fast.Live() > 100 {
		t.Fatalf("Live = %d, want <= 100", fast.Live())
	}
}

func TestStackDistSequentialScanIsCold(t *testing.T) {
	s := NewStackDist(0)
	for i := uint64(0); i < 2000; i++ {
		if d := s.Access(i); d != Cold {
			t.Fatalf("streaming access %d had distance %d, want Cold", i, d)
		}
	}
}

// --- BranchEntropy ---

func TestEntropyAlwaysTakenIsZero(t *testing.T) {
	be := NewBranchEntropy()
	var g, l float64
	for i := 0; i < 200; i++ {
		g, l = be.Observe(0x40, true)
	}
	if g > 1e-9 || l > 1e-9 {
		t.Fatalf("always-taken branch entropy = (%v, %v), want 0", g, l)
	}
}

func TestEntropyRandomBranchHigh(t *testing.T) {
	be := NewBranchEntropy()
	rng := rand.New(rand.NewSource(3))
	var lSum float64
	n := 0
	for i := 0; i < 5000; i++ {
		_, l := be.Observe(0x80, rng.Intn(2) == 0)
		if i > 1000 { // after warmup
			lSum += l
			n++
		}
	}
	if avg := lSum / float64(n); avg < 0.8 {
		t.Fatalf("random branch local entropy avg = %v, want > 0.8", avg)
	}
}

func TestEntropyAlternatingBranchPredictable(t *testing.T) {
	// T,N,T,N... is perfectly predictable from 1 bit of history: entropy
	// should approach 0 once the tables warm up.
	be := NewBranchEntropy()
	var l float64
	for i := 0; i < 2000; i++ {
		_, l = be.Observe(0x100, i%2 == 0)
	}
	if l > 0.05 {
		t.Fatalf("alternating branch local entropy = %v, want ~0", l)
	}
}

func TestEntropyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		be := NewBranchEntropy()
		for i := 0; i < 300; i++ {
			g, l := be.Observe(uint64(rng.Intn(8))*4, rng.Intn(3) == 0)
			if g < 0 || g > 1 || l < 0 || l > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// --- Extractor ---

func loadRec(addr uint64) trace.Record {
	return trace.Record{
		PC: 0x40, Op: isa.Load, Addr: addr, MemLen: 8,
		NumSrc: 1, Src: [isa.MaxSrcRegs]isa.Reg{isa.R(2)},
		NumDst: 1, Dst: [isa.MaxDstRegs]isa.Reg{isa.F(3)},
	}
}

func TestExtractVectorLength(t *testing.T) {
	r := loadRec(128)
	out := make([]float32, NumFeatures)
	NewExtractor(16).Extract(&r, out)
	if len(out) != 51 {
		t.Fatalf("NumFeatures = %d, want 51 (Table I)", NumFeatures)
	}
}

func TestExtractOpFlags(t *testing.T) {
	r := loadRec(128)
	out := make([]float32, NumFeatures)
	NewExtractor(16).Extract(&r, out)
	if out[featOpBase+6] != 1 {
		t.Fatal("load flag not set for a load")
	}
	if out[featOpBase+7] != 0 {
		t.Fatal("store flag set for a load")
	}
	var branch trace.Record
	branch.Op = isa.BranchCond
	branch.Taken = true
	NewExtractor(16).Extract(&branch, out)
	if out[featOpBase+9] != 1 || out[featOpBase+10] != 1 || out[featOpBase+11] != 1 {
		t.Fatal("branch flags not set for conditional branch")
	}
	if out[featTaken] != 1 {
		t.Fatal("taken flag not set")
	}
}

func TestExtractRegisterCategories(t *testing.T) {
	r := loadRec(128)
	out := make([]float32, NumFeatures)
	NewExtractor(16).Extract(&r, out)
	if out[featSrcCatBase] != float32(1+int(isa.RegInt)) {
		t.Fatalf("src0 category = %v, want int class", out[featSrcCatBase])
	}
	if out[featDstCatBase] != float32(1+int(isa.RegFP)) {
		t.Fatalf("dst0 category = %v, want fp class", out[featDstCatBase])
	}
	// Unused slots must be zero.
	if out[featSrcCatBase+1] != 0 || out[featDstCatBase+1] != 0 {
		t.Fatal("unused register slots must be zero")
	}
}

func TestExtractStackDistanceEncoding(t *testing.T) {
	e := NewExtractor(16)
	out := make([]float32, NumFeatures)
	r1 := loadRec(0)
	e.Extract(&r1, out)
	if out[featSDData] != coldDistanceFeature {
		t.Fatalf("cold access encoded as %v, want %v", out[featSDData], float32(coldDistanceFeature))
	}
	r2 := loadRec(8) // same 64-byte block
	e.Extract(&r2, out)
	if want := float32(math.Log2(2)); out[featSDData] != want {
		t.Fatalf("immediate reuse encoded as %v, want %v", out[featSDData], want)
	}
}

func TestExtractAllShape(t *testing.T) {
	recs := []trace.Record{loadRec(0), loadRec(64), loadRec(0)}
	feats := ExtractAll(recs)
	if len(feats) != 3*NumFeatures {
		t.Fatalf("ExtractAll length = %d, want %d", len(feats), 3*NumFeatures)
	}
	// Third access reuses block 0 with one intervening unique block.
	if got, want := feats[2*NumFeatures+featSDData], float32(math.Log2(3)); got != want {
		t.Fatalf("reuse distance encoding = %v, want %v", got, want)
	}
}

func TestMaskFeaturesZeroesColumns(t *testing.T) {
	recs := []trace.Record{loadRec(0), loadRec(64)}
	feats := ExtractAll(recs)
	MaskFeatures(feats, MemoryBranchFeatureIdx)
	for row := 0; row < 2; row++ {
		for _, j := range MemoryBranchFeatureIdx {
			if feats[row*NumFeatures+j] != 0 {
				t.Fatalf("row %d feature %d not masked", row, j)
			}
		}
	}
	// Non-masked features survive.
	if feats[featOpBase+6] != 1 {
		t.Fatal("masking clobbered unrelated features")
	}
}

func TestFeatureDeterminism(t *testing.T) {
	recs := []trace.Record{loadRec(0), loadRec(64), loadRec(128), loadRec(0)}
	a := ExtractAll(recs)
	b := ExtractAll(recs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d differs between runs", i)
		}
	}
}

// --- Streaming use and reuse ---

// synthTrace builds a pseudo-random trace mixing loads, stores, ALU ops, and
// conditional branches with enough address and outcome reuse to exercise
// every stateful feature (stack distances and both entropies).
func synthTrace(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		r := &recs[i]
		r.PC = uint64(rng.Intn(32)) * trace.InstBytes
		switch rng.Intn(4) {
		case 0:
			r.Op = isa.Load
			r.Addr = uint64(rng.Intn(16)) * 64
			r.MemLen = 8
		case 1:
			r.Op = isa.Store
			r.Addr = uint64(rng.Intn(16)) * 64
			r.MemLen = 8
		case 2:
			r.Op = isa.BranchCond
			r.Taken = rng.Intn(3) > 0
		default:
			r.Op = isa.IntALU
			r.NumSrc = 2
			r.Src = [isa.MaxSrcRegs]isa.Reg{isa.R(1), isa.R(2)}
			r.NumDst = 1
			r.Dst = [isa.MaxDstRegs]isa.Reg{isa.R(3)}
		}
	}
	return recs
}

// TestExtractMatchesExtractAll pins the per-record path perfvec-trace
// streams through: one Extractor fed record by record produces exactly the
// rows ExtractAll materializes for the same sequence.
func TestExtractMatchesExtractAll(t *testing.T) {
	recs := synthTrace(3000, 7)
	want := ExtractAll(recs)

	e := NewExtractor(4096)
	row := make([]float32, NumFeatures)
	for i := range recs {
		e.Extract(&recs[i], row)
		for j, v := range row {
			if v != want[i*NumFeatures+j] {
				t.Fatalf("row %d feature %d: per-record %v != ExtractAll %v", i, j, v, want[i*NumFeatures+j])
			}
		}
	}
}

// TestExtractorResetRegression pins the cross-trace state-leak fix: an
// extractor reused across programs must, after Reset, produce exactly the
// rows a fresh extractor would — and the test first proves the leak is real
// by showing that WITHOUT Reset the second program's rows differ.
func TestExtractorResetRegression(t *testing.T) {
	recs := synthTrace(500, 3)
	fresh := ExtractAll(recs)

	// Without Reset: history from the first pass leaks into the second.
	leaky := NewExtractor(len(recs))
	out := make([]float32, len(recs)*NumFeatures)
	for i := range recs {
		leaky.Extract(&recs[i], out[i*NumFeatures:(i+1)*NumFeatures])
	}
	for i := range recs {
		leaky.Extract(&recs[i], out[i*NumFeatures:(i+1)*NumFeatures])
	}
	same := true
	for i, v := range out {
		if v != fresh[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("expected reused extractor WITHOUT Reset to leak state between traces; the regression test is vacuous")
	}

	// With Reset: bitwise identical to a fresh extractor.
	e := NewExtractor(len(recs))
	for i := range recs {
		e.Extract(&recs[i], out[i*NumFeatures:(i+1)*NumFeatures])
	}
	e.Reset()
	for i := range recs {
		e.Extract(&recs[i], out[i*NumFeatures:(i+1)*NumFeatures])
	}
	for i, v := range out {
		if v != fresh[i] {
			t.Fatalf("element %d after Reset: %v != fresh %v", i, v, fresh[i])
		}
	}
}

func TestStackDistReset(t *testing.T) {
	s := NewStackDist(0)
	s.Access(1)
	s.Access(2)
	s.Reset()
	if s.Live() != 0 {
		t.Fatalf("Live after Reset = %d, want 0", s.Live())
	}
	if d := s.Access(1); d != Cold {
		t.Fatalf("first access after Reset = %d, want Cold", d)
	}
	s.Access(2)
	if d := s.Access(1); d != 1 {
		t.Fatalf("distance after Reset = %d, want 1", d)
	}
}
