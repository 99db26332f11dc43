package perfvec

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
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

			tp := tensor.NewTapeArena()
			ref := append([]float32(nil), f.Forward(tp, WindowsFor(tp, p, 0, n, cfg.Window)).Data...)

			for _, bsz := range []int{1, 3, 17, 64, 256, 299} {
				tp2 := tensor.NewTapeArena()
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
// identical to the tape graph's forward (an arena tape over the whole
// program, summed by SumReps) for every program in the batch, across batch
// compositions that exercise every remainder shape: programs smaller than
// one encode range, spanning several, and of exact multiples of
// maxRangeRows, range boundaries landing inside and exactly on program
// boundaries, and single-program batches (the size comments' "chunk" is the
// 256-row unit the encode once used: two full ranges). It ties the serving path to the graph training uses, not only to
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
			tp := tensor.NewTapeArena()
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

// TestEncodeLanesBitwise pins the row-parallel encode loop: each wave is
// split into as many contiguous row ranges as GOMAXPROCS allows, and
// EncodePrograms32, EncodeProgramsQ8 and EncodePrograms64 must give the same
// bits at every range count, for every architecture. The batch puts range
// boundaries inside programs, programs shorter than a range and 1-row
// programs into the same wave; the short batch has fewer rows than ranges
// at the higher counts. GOMAXPROCS=8 oversubscribes the pool, so ranges
// also run inline on the caller when no worker is idle.
func TestEncodeLanesBitwise(t *testing.T) {
	kinds := []ModelKind{ModelLinear, ModelMLP, ModelLSTM, ModelBiLSTM, ModelGRU, ModelTransformer}
	mixes := [][]int{
		{1, 2, 130, 1, 90, 3, 60}, // 287 rows: a full wave, then a 31-row wave
		{1, 2},                    // 3 rows: fewer rows than ranges at GOMAXPROCS=4
	}
	type reps struct {
		f32, q8 [][]float32
		f64     [][]float64
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			rng := rand.New(rand.NewSource(37))
			for _, mix := range mixes {
				ps := make([]*ProgramData, len(mix))
				for i, n := range mix {
					ps[i] = encTestProgram(rng, "p", n, cfg.FeatDim)
				}
				run := func(procs int) reps {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					r := reps{f32: reps32(f, ps), q8: make([][]float32, len(ps)), f64: make([][]float64, len(ps))}
					for i := range ps {
						r.q8[i] = make([]float32, cfg.RepDim)
						r.f64[i] = make([]float64, cfg.RepDim)
					}
					e := f.AcquireEncoder()
					e.EncodeProgramsQ8(ps, r.q8)
					f.ReleaseEncoder(e)
					f.EncodePrograms64(ps, r.f64)
					return r
				}
				ref := run(1)
				for _, procs := range []int{2, 3, 4, 8} {
					got := run(procs)
					for i := range ps {
						for j := 0; j < cfg.RepDim; j++ {
							if got.f32[i][j] != ref.f32[i][j] || got.q8[i][j] != ref.q8[i][j] || got.f64[i][j] != ref.f64[i][j] {
								t.Fatalf("mix %v GOMAXPROCS=%d program %d col %d: f32 %v/%v q8 %v/%v f64 %v/%v (must equal GOMAXPROCS=1 bitwise)",
									mix, procs, i, j, got.f32[i][j], ref.f32[i][j], got.q8[i][j], ref.q8[i][j], got.f64[i][j], ref.f64[i][j])
							}
						}
					}
				}
			}
		})
	}
}

// TestEncoderPoolSteadyState pins the pooled-encoder promise: repeated
// coalesced passes must stop building encoders and stop growing their
// arenas once warm — the serving miss path reuses everything. At
// GOMAXPROCS=2 each wave's second row range runs on a borrowed encoder,
// which must be recycled and stay warm too.
func TestEncoderPoolSteadyState(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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
			if procs > 1 && builtWarm < 2 {
				t.Fatalf("built %d encoders at GOMAXPROCS=%d; the waves' second ranges must borrow their own", builtWarm, procs)
			}
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
		})
	}
}

// TestEncodeRejectsForeignFeatDim pins the encode precondition: a program
// whose feature width differs from the model's is refused by name, not
// encoded from whichever columns both widths share.
func TestEncodeRejectsForeignFeatDim(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFoundation(cfg)
	rng := rand.New(rand.NewSource(3))
	ps := []*ProgramData{
		encTestProgram(rng, "fits", 4, cfg.FeatDim),
		encTestProgram(rng, "narrow", 4, cfg.FeatDim-1),
	}
	defer func() {
		msg := fmt.Sprint(recover())
		want := fmt.Sprintf("%q has %d features per instruction, the model takes %d", "narrow", cfg.FeatDim-1, cfg.FeatDim)
		if !strings.Contains(msg, want) {
			t.Fatalf("encode panicked with %q, want a message containing %q", msg, want)
		}
	}()
	reps32(f, ps)
}

// TestEncodeManyRangesBitwise drives the claim loop through more ranges
// than its ring has slots, at GOMAXPROCS 1, 2, 3 and 8 (8 oversubscribes a
// small box, so loops also run inline and park while the fold catches up).
// The batch holds one long program, hundreds of programs shorter than the
// window, a range boundary exactly on a program boundary and another three
// rows after a program start. Each tier is held bit for bit to a reference
// that runs its backend over WindowsFor's per-window matrices — the float32
// tier to the tape forward itself, the others with each window its own
// segment (sampleWindows) — summed per program in row order, so neither the
// program-segment window batch nor the range split is in the reference.
// InstructionReps' rows are held to the tape forward's rows.
func TestEncodeManyRangesBitwise(t *testing.T) {
	kinds := []ModelKind{ModelLinear, ModelMLP, ModelLSTM, ModelBiLSTM, ModelGRU, ModelTransformer}
	rng := rand.New(rand.NewSource(53))
	cfg := DefaultConfig()
	cfg.Hidden, cfg.RepDim = 8, 8 // the row count is what matters here, not the width
	// Rows [0, 1280) are one program, so the boundary of range 10 (at 128
	// rows per range) is a program boundary; the next program ends at 1405,
	// three rows before the boundary of range 11.
	sizes := []int{1280, 125}
	for i := 0; i < 300; i++ {
		sizes = append(sizes, 1+i%(cfg.Window-2)) // 1..6 rows, shorter than Window-1
	}
	sizes = append(sizes, 900)
	ps := make([]*ProgramData, len(sizes))
	total := 0
	for i, n := range sizes {
		ps[i] = encTestProgram(rng, fmt.Sprintf("p%d", i), n, cfg.FeatDim)
		total += n
	}
	if ranges := total / maxRangeRows; ranges <= ringSlots*8 {
		t.Fatalf("%d rows make %d ranges, not more than the %d ring slots at GOMAXPROCS=8", total, ranges, ringSlots*8)
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg.Model = kind
			f := NewFoundation(cfg)
			q8enc, q8head := f.q8()
			o := f.oracle64()
			want32 := make([][]float32, len(ps))
			wantQ8 := make([][]float32, len(ps))
			want64 := make([][]float64, len(ps))
			var rows32 [][]float32 // tape rows of the programs InstructionReps checks
			for i, p := range ps {
				xs := WindowsFor(nil, p, 0, p.N, cfg.Window)
				y := f.Forward(nil, xs)
				want32[i] = SumReps(y)
				if i == 0 || i == 1 || i == len(ps)-1 {
					rows32 = append(rows32, y.Data)
				}
				xs32, xs64 := sampleWindows(xs)
				var s tensor.Slab32
				var q tensor.SlabI8
				yq := q8head.Forward(&s, &q, nn.ForwardWindowsQ8(q8enc, &s, &q, xs32))
				wantQ8[i] = SumReps(tensor.FromSlice(yq.Data, yq.R, yq.C))
				y64 := o.Linear(f.Head, o.ForwardWindows(xs64))
				want64[i] = make([]float64, cfg.RepDim)
				for r := 0; r < y64.R; r++ {
					for j, v := range y64.Row(r) {
						want64[i][j] += v
					}
				}
			}
			for _, procs := range []int{1, 2, 3, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got32 := reps32(f, ps)
				gotQ8 := make([][]float32, len(ps))
				got64 := make([][]float64, len(ps))
				for i := range ps {
					gotQ8[i] = make([]float32, cfg.RepDim)
					got64[i] = make([]float64, cfg.RepDim)
				}
				e := f.AcquireEncoder()
				e.EncodeProgramsQ8(ps, gotQ8)
				f.ReleaseEncoder(e)
				f.EncodePrograms64(ps, got64)
				var gotRows [][]float32
				for _, i := range []int{0, 1, len(ps) - 1} {
					gotRows = append(gotRows, f.InstructionReps(ps[i]).Data)
				}
				runtime.GOMAXPROCS(prev)
				for i := range ps {
					for j := 0; j < cfg.RepDim; j++ {
						if got32[i][j] != want32[i][j] || gotQ8[i][j] != wantQ8[i][j] || got64[i][j] != want64[i][j] {
							t.Fatalf("GOMAXPROCS=%d program %d (%d rows) col %d: f32 %v/%v q8 %v/%v f64 %v/%v (must equal the per-window reference bitwise)",
								procs, i, ps[i].N, j, got32[i][j], want32[i][j], gotQ8[i][j], wantQ8[i][j], got64[i][j], want64[i][j])
						}
					}
				}
				for k, rows := range gotRows {
					for j, v := range rows {
						if v != rows32[k][j] {
							t.Fatalf("GOMAXPROCS=%d InstructionReps of checked program %d: element %d %v != tape %v", procs, k, j, v, rows32[k][j])
						}
					}
				}
			}
		})
	}
}

// sampleWindows lays per-window matrices out as a window batch in which
// each output row's window is its own segment (Start[b] = b·Window), in
// float32 and widened to float64.
func sampleWindows(xs []*tensor.Tensor) (nn.Windows[tensor.Tensor32], nn.Windows[tensor.Tensor64]) {
	n, c, w := xs[0].Rows(), xs[0].Cols(), len(xs)
	rows32 := tensor.Tensor32{Data: make([]float32, n*w*c), R: n * w, C: c}
	rows64 := tensor.NewTensor64(n*w, c)
	start := make([]int32, n)
	for b := range start {
		start[b] = int32(b * w)
		for t, x := range xs {
			row := x.Data[b*c : (b+1)*c]
			copy(rows32.Row(b*w+t), row)
			for j, v := range row {
				rows64.Row(b*w + t)[j] = float64(v)
			}
		}
	}
	return nn.Windows[tensor.Tensor32]{Rows: rows32, Start: start, Len: w},
		nn.Windows[tensor.Tensor64]{Rows: rows64, Start: start, Len: w}
}
