package perfvec

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/uarch"
)

// sweepFixture builds the batched-sweep test rig: a randomly initialized
// foundation, a calibrated (untrained) uarch model sharing its RepDim, a
// generated candidate space of size k, and one encoded program
// representation. No simulation runs — the bitwise contracts under test are
// pure linear-algebra properties of the engine, independent of training.
func sweepFixture(t testing.TB, k int) (*Foundation, *UarchModel, []*uarch.Config, []float32) {
	t.Helper()
	cfg := DefaultConfig()
	f := NewFoundation(cfg)
	um := NewUarchModel(cfg.RepDim, 24, 7)
	cfgs := uarch.GenerateSpace(uarch.SpaceSpec{Size: k, Seed: 42})
	if len(cfgs) != k {
		t.Fatalf("space size %d, want %d", len(cfgs), k)
	}
	um.Calibrate(cfgs)
	rng := rand.New(rand.NewSource(int64(k)))
	progRep := f.ProgramRep(encTestProgram(rng, "p", 120, cfg.FeatDim))
	return f, um, cfgs, progRep
}

// TestReps32MatchesRep pins the batched candidate embedding against the
// single-config path, bitwise: row i of Reps32 must be Rep(cfgs[i]) exactly,
// for every space size the sweep acceptance matrix uses.
func TestReps32MatchesRep(t *testing.T) {
	for _, k := range []int{1, 7, 256} {
		_, um, cfgs, _ := sweepFixture(t, k)
		var s tensor.Slab32
		reps := um.Reps32(&s, cfgs)
		if reps.R != k {
			t.Fatalf("Reps32 rows = %d, want %d", reps.R, k)
		}
		for i, c := range cfgs {
			row := reps.Row(i)
			for j, v := range um.Rep(c) {
				if math.Float32bits(row[j]) != math.Float32bits(v) {
					t.Fatalf("k=%d config %d (%s) col %d: Reps32 %v != Rep %v (must be bitwise identical)",
						k, i, c.Name, j, row[j], v)
				}
			}
		}
	}
}

// TestSweepBitwiseMatchesSingle is the tentpole acceptance pin: for space
// sizes 1/7/256/4096, every candidate prediction of the batched sweep must be
// bit-for-bit the single-uarch prediction — embed one config with Rep,
// predict with the K=1 GEMM — so batching is purely a throughput change.
func TestSweepBitwiseMatchesSingle(t *testing.T) {
	for _, k := range []int{1, 7, 256, 4096} {
		f, um, cfgs, progRep := sweepFixture(t, k)
		sw := NewSweeper(f, um)
		sw.SetSpace(cfgs)
		if sw.K() != k {
			t.Fatalf("K() = %d, want %d", sw.K(), k)
		}
		out := make([]float64, k)
		sw.Sweep(progRep, out)

		var s tensor.Slab32
		// Oracle spot-check budget: full scan below 1k, strided above to keep
		// the 4096-point case fast while still touching every panel region.
		stride := 1
		if k > 1024 {
			stride = 37
		}
		for j := 0; j < k; j += stride {
			s.Reset()
			want := f.PredictTotalNs32(&s, progRep, um.Rep(cfgs[j]))
			if math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("k=%d candidate %d (%s): sweep %v != single-uarch %v (must be bitwise identical)",
					k, j, cfgs[j].Name, out[j], want)
			}
		}
	}
}

// TestPredictTotalNs32NearF64 bounds the drift between the f32 single-uarch
// predictor (f32 FMA-chain dot) and the float64-accumulated PredictTotalNs:
// they cannot match bitwise, but the gap must stay within the drift harness's
// tolerance. As in checkDrift, the dot can cancel, so the denominator floors
// at 1e-3 of the sum of term magnitudes.
func TestPredictTotalNs32NearF64(t *testing.T) {
	f, um, cfgs, progRep := sweepFixture(t, 256)
	var s tensor.Slab32
	for _, c := range cfgs {
		rep := um.Rep(c)
		s.Reset()
		p32 := f.PredictTotalNs32(&s, progRep, rep)
		p64 := f.PredictTotalNs(progRep, rep)
		var termScale float64
		for j, v := range progRep {
			termScale += math.Abs(float64(v) * float64(rep[j]))
		}
		denom := math.Max(math.Abs(p64), 1e-3*termScale/float64(f.Cfg.TargetScale))
		if rel := math.Abs(p32-p64) / denom; rel > driftRelTol {
			t.Fatalf("%s: f32 predict %v vs f64 %v, relative gap %.2e > %.0e", c.Name, p32, p64, rel, driftRelTol)
		}
	}
}

// TestSweepConcurrent drives one sweeper from 1/2/8 goroutines over distinct
// programs and checks every result against a serial sweep — the pooled-slab
// sharing contract — and that the slab pool stops growing at the concurrency
// peak.
func TestSweepConcurrent(t *testing.T) {
	const k = 256
	f, um, cfgs, _ := sweepFixture(t, k)
	sw := NewSweeper(f, um)
	sw.SetSpace(cfgs)

	cfg := f.Cfg
	rng := rand.New(rand.NewSource(77))
	const nProgs = 16
	progReps := make([][]float32, nProgs)
	want := make([][]float64, nProgs)
	for i := range progReps {
		progReps[i] = f.ProgramRep(encTestProgram(rng, "p", 40+i*13, cfg.FeatDim))
		want[i] = make([]float64, k)
		sw.Sweep(progReps[i], want[i])
	}

	for _, workers := range []int{1, 2, 8} {
		got := make([][]float64, nProgs)
		for i := range got {
			got[i] = make([]float64, k)
		}
		var wg sync.WaitGroup
		next := make(chan int)
		go func() {
			for i := 0; i < nProgs; i++ {
				next <- i
			}
			close(next)
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					sw.Sweep(progReps[i], got[i])
				}
			}()
		}
		wg.Wait()
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("workers=%d program %d candidate %d: concurrent %v != serial %v",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	if built := sw.SlabStats(); built > 9 {
		t.Fatalf("sweeper built %d slabs under peak concurrency 8; pool is leaking", built)
	}
}

// TestSweepSteadyStateAllocs pins the hot path: once the slab pool is warm, a
// sweep over the embedded space performs zero heap allocations.
func TestSweepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc pins run in the non-race suite")
	}
	const k = 512
	f, um, cfgs, progRep := sweepFixture(t, k)
	sw := NewSweeper(f, um)
	sw.SetSpace(cfgs)
	out := make([]float64, k)
	pass := func() { sw.Sweep(progRep, out) }
	for i := 0; i < 3; i++ {
		pass()
	}
	if n := testing.AllocsPerRun(20, pass); n > 0 {
		t.Fatalf("steady-state Sweep allocates %.1f/op, want 0", n)
	}
}

// TestSweeperRepDimMismatch pins the constructor guard.
func TestSweeperRepDimMismatch(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFoundation(cfg)
	um := NewUarchModel(cfg.RepDim+1, 24, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("NewSweeper accepted a uarch model with mismatched RepDim")
		}
	}()
	NewSweeper(f, um)
}

// TestSweepBeforeSetSpacePanics pins the guard for a sweeper with no space:
// Sweep and SweepBatch panic with a message that names SetSpace.
func TestSweepBeforeSetSpacePanics(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFoundation(cfg)
	sw := NewSweeper(f, NewUarchModel(cfg.RepDim, 24, 7))
	rep, out := make([]float32, cfg.RepDim), make([]float64, 4)
	for name, call := range map[string]func(){
		"Sweep":      func() { sw.Sweep(rep, out) },
		"SweepBatch": func() { sw.SweepBatch([][]float32{rep}, [][]float64{out}, true) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "SetSpace") {
					t.Fatalf("%s before SetSpace: panic %q, want one naming SetSpace", name, msg)
				}
			}()
			call()
		}()
	}
}
