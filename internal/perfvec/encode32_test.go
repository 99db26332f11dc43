package perfvec

import (
	"math/rand"
	"testing"
)

// reps32 encodes ps through the forward-only float32 path on a pooled
// encoder and returns freshly allocated representations.
func reps32(f *Foundation, ps []*ProgramData) [][]float32 {
	dst := make([][]float32, len(ps))
	for i := range dst {
		dst[i] = make([]float32, f.Cfg.RepDim)
	}
	e := f.AcquireEncoder()
	e.EncodePrograms32(ps, dst)
	f.ReleaseEncoder(e)
	return dst
}

// TestEncodePrograms32Bitwise pins the serving fast path's central contract:
// for every model kind, a coalesced EncodePrograms32 pass is bitwise
// identical to the single-request path (ProgramRep) for every program in
// the batch, across batch compositions that exercise every remainder shape:
// programs smaller than one encode range, spanning several, and of exact
// multiples of maxRangeRows, range boundaries landing inside and exactly on
// program boundaries, and single-program batches. (The size comments' "chunk"
// is the 256-row unit the encode once used: two full ranges.)
func TestEncodePrograms32Bitwise(t *testing.T) {
	kinds := []ModelKind{ModelLinear, ModelMLP, ModelLSTM, ModelBiLSTM, ModelGRU, ModelTransformer}
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
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			rng := rand.New(rand.NewSource(19))
			for _, mix := range sizes {
				ps := make([]*ProgramData, len(mix))
				for i, n := range mix {
					ps[i] = encTestProgram(rng, "p", n, cfg.FeatDim)
				}
				got := reps32(f, ps)
				for i, p := range ps {
					want := f.ProgramRep(p)
					for j := range want {
						if got[i][j] != want[j] {
							t.Fatalf("mix %v program %d col %d: coalesced %v != single-request %v (must be bitwise identical)",
								mix, i, j, got[i][j], want[j])
						}
					}
				}
			}
		})
	}
}

// TestEncodePrograms32BatchInvariant re-pins row-wise batch invariance for
// the float32 engine directly: a program's representation from a coalesced
// f32 pass is bitwise identical to encoding it alone through the same path,
// regardless of what shares the batch.
func TestEncodePrograms32BatchInvariant(t *testing.T) {
	for _, kind := range []ModelKind{ModelLSTM, ModelGRU, ModelTransformer} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			rng := rand.New(rand.NewSource(23))
			ps := []*ProgramData{
				encTestProgram(rng, "a", 90, cfg.FeatDim),
				encTestProgram(rng, "b", 300, cfg.FeatDim),
				encTestProgram(rng, "c", 31, cfg.FeatDim),
			}
			batched := reps32(f, ps)
			for i, p := range ps {
				alone := reps32(f, []*ProgramData{p})[0]
				for j := range alone {
					if batched[i][j] != alone[j] {
						t.Fatalf("program %d col %d: coalesced %v != alone %v (f32 encoder must be row-wise batch-invariant)",
							i, j, batched[i][j], alone[j])
					}
				}
			}
		})
	}
}

// TestEncodePrograms32SteadyStateAllocs pins the f32 coalesced encode to
// zero heap allocations, for every architecture, once the encoder's slab,
// its packing scratch and its accumulator scratch are warm: every GEMM of
// the encode (the recurrent cells', the MLP's, the transformer's attention
// scores and AttentionValue32) must pack into the slab's own scratch.
func TestEncodePrograms32SteadyStateAllocs(t *testing.T) {
	for _, kind := range modelKinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			rng := rand.New(rand.NewSource(29))
			ps := []*ProgramData{
				encTestProgram(rng, "a", 64, cfg.FeatDim),
				encTestProgram(rng, "b", 200, cfg.FeatDim),
			}
			dst := [][]float32{make([]float32, cfg.RepDim), make([]float32, cfg.RepDim)}
			e := f.AcquireEncoder()
			defer f.ReleaseEncoder(e)
			pass := func() { e.EncodePrograms32(ps, dst) }
			for i := 0; i < 3; i++ {
				pass()
			}
			if raceEnabled {
				return // the race detector's own allocations break AllocsPerRun
			}
			if n := testing.AllocsPerRun(20, pass); n > 0 {
				t.Fatalf("%s: steady-state EncodePrograms32 allocates %.1f/op, want 0", kind, n)
			}
		})
	}
}
