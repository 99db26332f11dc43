package perfvec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The epsilon drift harness: the float32 serving fast path is held to
// rel err <= 1e-4 against the float64 oracle (EncodePrograms64), element by
// element, with a mixed relative/absolute bound — the denominator is
// max(|f64|, floor) where floor is 1e-2 of the largest oracle magnitude in
// the program's representation, so near-zero elements are judged on
// absolute drift at the representation's own scale instead of blowing up a
// meaningless relative error. The harness runs under both the AVX2 kernels
// and the portable fallback (CI repeats it with -tags noasm), across cell
// types, seeds, batch compositions, and the numeric edge cases serving will
// meet: denormal-adjacent weights and features, all-zero windows, and
// chunking boundaries.

const driftRelTol = 1e-4

// checkDrift encodes ps through both precisions and enforces the epsilon
// bound on every representation element and on end-to-end predictions.
func checkDrift(t *testing.T, f *Foundation, ps []*ProgramData) {
	t.Helper()
	rep32 := reps32(f, ps)
	rep64 := make([][]float64, len(ps))
	for i := range rep64 {
		rep64[i] = make([]float64, f.Cfg.RepDim)
	}
	f.EncodePrograms64(ps, rep64)

	rng := rand.New(rand.NewSource(101))
	u := make([]float32, f.Cfg.RepDim)
	for j := range u {
		u[j] = float32(rng.NormFloat64())
	}

	for i := range ps {
		var maxAbs float64
		for _, v := range rep64[i] {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		floor := 1e-2 * maxAbs
		for j := range rep32[i] {
			denom := math.Abs(rep64[i][j])
			if denom < floor {
				denom = floor
			}
			if denom == 0 { // oracle rep identically zero: f32 must agree exactly
				if rep32[i][j] != 0 {
					t.Fatalf("program %d col %d: f32 %v, oracle exactly 0", i, j, rep32[i][j])
				}
				continue
			}
			if rel := math.Abs(float64(rep32[i][j])-rep64[i][j]) / denom; rel > driftRelTol {
				t.Fatalf("program %d col %d: f32 %v vs f64 %v (rel err %.2e > %.0e)",
					i, j, rep32[i][j], rep64[i][j], rel, driftRelTol)
			}
		}

		// End to end: the time predictions made from the two representations
		// must agree to the same tolerance. The dot product can cancel, so
		// the denominator floors at 1e-3 of the sum of term magnitudes.
		p32 := f.PredictTotalNs(rep32[i], u)
		p64 := f.PredictTotalNs64(rep64[i], u)
		var termScale float64
		for j, v := range rep64[i] {
			termScale += math.Abs(v * float64(u[j]))
		}
		denom := math.Max(math.Abs(p64), 1e-3*termScale/float64(f.Cfg.TargetScale))
		if denom == 0 {
			if p32 != 0 {
				t.Fatalf("program %d: prediction f32 %v, oracle exactly 0", i, p32)
			}
			continue
		}
		if rel := math.Abs(p32-p64) / denom; rel > driftRelTol {
			t.Fatalf("program %d: prediction f32 %v vs f64 %v (rel err %.2e)", i, p32, p64, rel)
		}
	}
}

var driftKinds = []ModelKind{ModelLSTM, ModelGRU, ModelTransformer}

// TestDriftEpsilon sweeps cell types x model seeds x batch compositions.
func TestDriftEpsilon(t *testing.T) {
	mixes := [][]int{
		{40},
		{100, 156},          // program boundary exactly at chunk end
		{33, 1, 260, 7, 19}, // chunks spanning program boundaries
	}
	for _, kind := range driftKinds {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Model = kind
				cfg.Seed = seed
				f := NewFoundation(cfg)
				rng := rand.New(rand.NewSource(seed * 31))
				for _, mix := range mixes {
					ps := make([]*ProgramData, len(mix))
					for i, n := range mix {
						ps[i] = encTestProgram(rng, "p", n, cfg.FeatDim)
					}
					checkDrift(t, f, ps)
				}
			})
		}
	}
}

// TestDriftRowBoundaries exercises the range boundary totals: a single
// program of exactly 1, 7, 256, and (LSTM only, for runtime) 4096
// instructions — one row, inside one encode range, exactly two full ranges
// of maxRangeRows, and many of them.
func TestDriftRowBoundaries(t *testing.T) {
	for _, kind := range driftKinds {
		totals := []int{1, 7, 256}
		if kind == ModelLSTM {
			totals = append(totals, 4096)
		}
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			rng := rand.New(rand.NewSource(43))
			for _, n := range totals {
				checkDrift(t, f, []*ProgramData{encTestProgram(rng, "p", n, cfg.FeatDim)})
			}
		})
	}
}

// TestDriftAllZeroWindows feeds all-zero feature traces: every window is
// pure padding, so the representations are driven entirely by biases and
// the two paths must still track.
func TestDriftAllZeroWindows(t *testing.T) {
	for _, kind := range driftKinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			p := &ProgramData{Name: "zero", N: 40, FeatDim: cfg.FeatDim,
				Features: make([]float32, 40*cfg.FeatDim)}
			checkDrift(t, f, []*ProgramData{p, encTestProgram(rand.New(rand.NewSource(47)), "q", 30, cfg.FeatDim)})
		})
	}
}

// TestDriftDenormalFeatures feeds feature rows dominated by float32
// denormals (~1e-42), with a sparse scattering of unit-scale values keeping
// the representation itself at normal magnitude. The denormal products
// underflow float32 GEMM partials while the oracle keeps them; the drift
// that causes sits ~35 orders below the representation scale, so the
// epsilon bound must hold untouched. (A trace of pure denormals would push
// the entire representation below float32's normal range, where a 1e-4
// relative bound is unsatisfiable by construction — that regime carries no
// serving-relevant signal.)
func TestDriftDenormalFeatures(t *testing.T) {
	for _, kind := range driftKinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			p := &ProgramData{Name: "denorm", N: 64, FeatDim: cfg.FeatDim,
				Features: make([]float32, 64*cfg.FeatDim)}
			for i := range p.Features {
				switch {
				case i%13 == 0:
					p.Features[i] = 1
				case i%3 == 0:
					p.Features[i] = -1e-42
				default:
					p.Features[i] = 1e-42
				}
			}
			checkDrift(t, f, []*ProgramData{p})
		})
	}
}

// TestDriftDenormalAdjacentWeights pushes the encoder's weight matrices
// into the float32 denormal range (x1e-38) while randomizing its bias and
// gain row-vectors to normal magnitudes, so every GEMM multiplies denormal
// weights but activations — and therefore the representation — stay driven
// by the biases at normal scale. The denormal contributions that float32
// loses and the oracle keeps sit ~38 orders below the activations, so the
// epsilon bound must hold exactly as in the nominal case. (Scaling the
// whole parameter set down instead sends multi-layer recurrences below
// float32's representable range entirely — there is no finite-precision
// engine that could satisfy a relative bound there.) The rescaling happens
// before the first float64 encode, so the lazily built oracle widens the
// already-rescaled weights.
func TestDriftDenormalAdjacentWeights(t *testing.T) {
	for _, kind := range driftKinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = kind
			f := NewFoundation(cfg)
			rng := rand.New(rand.NewSource(59))
			for _, p := range f.Encoder.Params() {
				if len(p.Shape) == 1 { // bias / gain / positional vectors
					for i := range p.Data {
						p.Data[i] = float32(rng.NormFloat64()) * 0.5
					}
					continue
				}
				for i := range p.Data {
					p.Data[i] *= 1e-38
				}
			}
			checkDrift(t, f, []*ProgramData{encTestProgram(rand.New(rand.NewSource(53)), "p", 80, cfg.FeatDim)})
		})
	}
}
