package dse

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/perfvec"
	"repro/internal/uarch"
)

// sweepRig builds a simulation-free sweep fixture: a randomly initialized
// foundation, a calibrated uarch model, a generated candidate space of size
// k, and nProgs encoded synthetic programs. The contracts under test —
// batched == naive bitwise, worker-count invariance — are properties of the
// prediction engine, not of trained weights.
func sweepRig(t *testing.T, k, nProgs int) (*perfvec.Foundation, *perfvec.UarchModel, []*uarch.Config, [][]float32) {
	t.Helper()
	cfg := perfvec.DefaultConfig()
	f := perfvec.NewFoundation(cfg)
	um := perfvec.NewUarchModel(cfg.RepDim, 24, 5)
	cfgs := uarch.GenerateSpace(uarch.SpaceSpec{Size: k, Seed: 21})
	if len(cfgs) != k {
		t.Fatalf("space size %d, want %d", len(cfgs), k)
	}
	um.Calibrate(cfgs)

	rng := rand.New(rand.NewSource(int64(31 * nProgs)))
	ps := make([]*perfvec.ProgramData, nProgs)
	progReps := make([][]float32, nProgs)
	for i := range ps {
		n := 30 + i*17
		p := &perfvec.ProgramData{Name: "p", N: n, FeatDim: cfg.FeatDim,
			Features: make([]float32, n*cfg.FeatDim)}
		for j := range p.Features {
			p.Features[j] = rng.Float32()*2 - 1
		}
		ps[i] = p
		progReps[i] = make([]float32, cfg.RepDim)
	}
	e := f.AcquireEncoder()
	e.EncodePrograms32(ps, progReps)
	f.ReleaseEncoder(e)
	return f, um, cfgs, progReps
}

// requireSweepBitwise compares a batched sweep result against the per-config
// naive oracle, bitwise.
func requireSweepBitwise(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	for pi := range got {
		for di := range got[pi] {
			if math.Float64bits(got[pi][di]) != math.Float64bits(want[pi][di]) {
				t.Fatalf("%s: program %d design %d: batched %v != naive %v (must be bitwise identical)",
					label, pi, di, got[pi][di], want[pi][di])
			}
		}
	}
}

func makeRows(n, k int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, k)
	}
	return out
}

// TestSweepProgramsMatchesNaiveSizes pins the acceptance matrix over space
// sizes: the batched fan-out must agree bitwise with the per-config oracle
// pooled (workers 0) and on the calling goroutine (workers 1). Sizes
// 1-17 leave every remainder past the last full 8-lane block of the vector
// ns conversion, and 4095 a 7-wide one after 511 blocks; 256 and 4096
// leave none.
func TestSweepProgramsMatchesNaiveSizes(t *testing.T) {
	f, um, _, progReps := sweepRig(t, 4096, 3)
	sw := perfvec.NewSweeper(f, um)
	sizes := []int{256, 4095, 4096}
	for k := 1; k <= 17; k++ {
		sizes = append(sizes, k)
	}
	for _, k := range sizes {
		cfgs := uarch.GenerateSpace(uarch.SpaceSpec{Size: k, Seed: 21})
		sw.SetSpace(cfgs)
		want := makeRows(len(progReps), k)
		SweepNaive(f, um, cfgs, progReps, want)
		for _, workers := range []int{0, 1} {
			got := makeRows(len(progReps), k)
			if n := SweepPrograms(sw, progReps, got, workers); n != len(progReps)*k {
				t.Fatalf("k=%d: SweepPrograms reported %d configs, want %d", k, n, len(progReps)*k)
			}
			requireSweepBitwise(t, "k="+strconv.Itoa(k)+" workers="+strconv.Itoa(workers), got, want)
		}
	}
}

// TestSweepProgramsWorkers pins worker-count invariance: 1, 2, and 8 workers
// must all reproduce the naive oracle bitwise on the same rig.
func TestSweepProgramsWorkers(t *testing.T) {
	const k = 256
	f, um, cfgs, progReps := sweepRig(t, k, 12)
	sw := perfvec.NewSweeper(f, um)
	sw.SetSpace(cfgs)

	want := makeRows(len(progReps), k)
	SweepNaive(f, um, cfgs, progReps, want)
	for _, workers := range []int{1, 2, 8} {
		got := makeRows(len(progReps), k)
		SweepPrograms(sw, progReps, got, workers)
		requireSweepBitwise(t, "workers="+strconv.Itoa(workers), got, want)
	}
}

// TestSweepProgramsBatchedMatchesNaive pins the one batched product against
// the per-config oracle bit for bit. 7 and 13 programs leave a partial MR
// row strip; 7 and 4097 candidates leave a partial NR column strip. One
// sweeper's space switches 4096 -> 7 -> 4097, so the later spaces run on
// panels a larger space left behind, and on panels regrown past it.
func TestSweepProgramsBatchedMatchesNaive(t *testing.T) {
	f, um, _, progReps := sweepRig(t, 4097, 13)
	sw := perfvec.NewSweeper(f, um)
	for _, k := range []int{4096, 7, 4097} {
		cfgs := uarch.GenerateSpace(uarch.SpaceSpec{Size: k, Seed: 21})
		sw.SetSpace(cfgs)
		if sw.K() != k {
			t.Fatalf("K() = %d after SetSpace of %d configs", sw.K(), k)
		}
		if k == 4096 {
			SweepPrograms(sw, progReps, makeRows(len(progReps), k), 0)
			continue
		}
		want := makeRows(len(progReps), k)
		SweepNaive(f, um, cfgs, progReps, want)
		for _, p := range []int{7, 13} {
			for _, workers := range []int{0, 1} {
				got := makeRows(p, k)
				if n := SweepPrograms(sw, progReps[:p], got, workers); n != p*k {
					t.Fatalf("SweepPrograms reported %d configs, want %d", n, p*k)
				}
				requireSweepBitwise(t, "k="+strconv.Itoa(k)+" programs="+strconv.Itoa(p)+" workers="+strconv.Itoa(workers), got, want[:p])
			}
		}
	}
}

// TestSweepProgramsSteadyStateAllocFree pins the batched sweep at zero
// allocations once the sweeper's slab pool is warm, pooled (workers 0) and
// on the calling goroutine (workers 1).
func TestSweepProgramsSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f, um, cfgs, progReps := sweepRig(t, 4096, 8)
	sw := perfvec.NewSweeper(f, um)
	sw.SetSpace(cfgs)
	out := makeRows(len(progReps), len(cfgs))
	for _, workers := range []int{0, 1} {
		SweepPrograms(sw, progReps, out, workers)
		if allocs := testing.AllocsPerRun(20, func() { SweepPrograms(sw, progReps, out, workers) }); allocs != 0 {
			t.Fatalf("workers=%d: SweepPrograms made %v allocs per call in steady state, want 0", workers, allocs)
		}
	}
}
