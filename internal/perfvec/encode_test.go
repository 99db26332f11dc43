package perfvec

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// encTestProgram builds a deterministic synthetic feature-only program of n
// instructions.
func encTestProgram(rng *rand.Rand, name string, n, featDim int) *ProgramData {
	p := &ProgramData{Name: name, N: n, FeatDim: featDim, Features: make([]float32, n*featDim)}
	for i := range p.Features {
		p.Features[i] = rng.Float32()*2 - 1
	}
	return p
}

// TestForwardRowwiseBatchInvariant pins the property coalesced serving is
// built on: the encoder computes every sample's representation independently
// of how many other samples share the batch, bit for bit. Each model kind is
// run over one program at several batch sizes (including remainders of every
// flavor against the reference pass) and every row must match the
// full-program pass exactly.
func TestForwardRowwiseBatchInvariant(t *testing.T) {
	for _, kind := range []ModelKind{ModelLSTM, ModelGRU, ModelTransformer} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			rng := rand.New(rand.NewSource(7))
			const n = 300
			p := encTestProgram(rng, "p", n, cfg.FeatDim)

			tp := tensor.NewInferenceTape()
			ref := append([]float32(nil), f.Forward(tp, WindowsFor(tp, p, 0, n, cfg.Window)).Data...)

			for _, bsz := range []int{1, 3, 17, 64, 256, 299} {
				tp2 := tensor.NewInferenceTape()
				for from := 0; from < n; from += bsz {
					to := min(from+bsz, n)
					tp2.Reset()
					out := f.Forward(tp2, WindowsFor(tp2, p, from, to, cfg.Window))
					for i := 0; i < to-from; i++ {
						for j := 0; j < cfg.RepDim; j++ {
							if got, want := out.Data[i*cfg.RepDim+j], ref[(from+i)*cfg.RepDim+j]; got != want {
								t.Fatalf("batch=%d row %d col %d: %v != %v (encoder must be row-wise batch-invariant)",
									bsz, from+i, j, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestEncodeProgramsBitwise checks that a coalesced encode pass is bitwise
// identical to the tape graph's forward (an inference tape over the whole
// program, summed by SumReps) for every program in the batch, across batch
// compositions that exercise every remainder shape: programs smaller than,
// equal to, and larger than the streamChunk encode chunk, chunk boundaries
// landing inside and exactly on program boundaries, and single-program
// batches. It ties the serving path to the graph training uses, not only to
// the single-request path that shares its kernels.
func TestEncodeProgramsBitwise(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFoundation(cfg)
	rng := rand.New(rand.NewSource(11))

	sizes := [][]int{
		{1},
		{5},
		{256},
		{257},
		{300},
		{1, 1, 1},
		{16, 48, 64},         // total 128: one partial chunk
		{100, 156},           // total 256: boundary exactly at chunk end
		{100, 200, 300},      // chunks span program boundaries
		{256, 256},           // program boundary == chunk boundary
		{33, 1, 511, 7, 129}, // mixed remainders
	}
	for _, mix := range sizes {
		ps := make([]*ProgramData, len(mix))
		for i, n := range mix {
			ps[i] = encTestProgram(rng, "p", n, cfg.FeatDim)
		}
		got := reps32(f, ps)
		for i, p := range ps {
			tp := tensor.NewInferenceTape()
			want := SumReps(f.Forward(tp, WindowsFor(tp, p, 0, p.N, cfg.Window)))
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("mix %v program %d col %d: coalesced %v != tape forward %v (must be bitwise identical)",
						mix, i, j, got[i][j], want[j])
				}
			}
		}
	}
}

// TestEncodeProgramsBitwiseAcrossParallelism repeats one coalesced encode at
// several GOMAXPROCS values: the GEMM chunking contract promises bitwise
// invariance to pool parallelism, and the serving path inherits it.
func TestEncodeProgramsBitwiseAcrossParallelism(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFoundation(cfg)
	rng := rand.New(rand.NewSource(13))
	ps := []*ProgramData{
		encTestProgram(rng, "a", 120, cfg.FeatDim),
		encTestProgram(rng, "b", 300, cfg.FeatDim),
		encTestProgram(rng, "c", 31, cfg.FeatDim),
	}
	run := func(procs int) [][]float32 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return reps32(f, ps)
	}
	ref := run(1)
	for _, procs := range []int{2, 8} {
		got := run(procs)
		for i := range ref {
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("GOMAXPROCS=%d: program %d col %d diverged: %v vs %v", procs, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestEncoderPoolSteadyState pins the pooled-encoder promise: repeated
// coalesced passes must stop building encoders and stop growing their
// arenas once warm — the serving miss path reuses everything.
func TestEncoderPoolSteadyState(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFoundation(cfg)
	rng := rand.New(rand.NewSource(17))
	ps := []*ProgramData{
		encTestProgram(rng, "a", 64, cfg.FeatDim),
		encTestProgram(rng, "b", 200, cfg.FeatDim),
	}
	dst := [][]float32{make([]float32, cfg.RepDim), make([]float32, cfg.RepDim)}
	pass := func() {
		e := f.AcquireEncoder()
		e.EncodePrograms32(ps, dst)
		f.ReleaseEncoder(e)
	}
	pass()
	pass()
	builtWarm, growsWarm := f.EncoderStats()
	for i := 0; i < 4; i++ {
		pass()
	}
	built, grows := f.EncoderStats()
	if built != builtWarm {
		t.Errorf("steady-state passes built %d new encoders; the pool must recycle them", built-builtWarm)
	}
	if grows != growsWarm {
		t.Errorf("steady-state passes grew the arenas %d times; windows and activations must be pooled", grows-growsWarm)
	}
	if raceEnabled {
		return // the race detector's own allocations break AllocsPerRun
	}
	avg := testing.AllocsPerRun(4, pass)
	if avg != 0 {
		t.Errorf("steady-state EncodePrograms32 performs %.0f heap allocations; the coalesced encode path must allocate zero", avg)
	}
}
