package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestFastGateVectorMatchesScalar pins the bitwise contract of the AVX2 gate
// kernels: for every input — random gate-range values, saturation-range
// values, the clamp/underflow edges, ±Inf and NaN (which both paths
// propagate) — the vector path produces exactly the bits of the scalar
// fastExp32 family. Lengths cover pure-vector,
// vector+tail, and pure-tail splits, so the dispatch point is proven
// unobservable.
func TestFastGateVectorMatchesScalar(t *testing.T) {
	if !useFastGates {
		t.Skip("AVX2 gate kernels unavailable on this machine/build")
	}
	rng := rand.New(rand.NewSource(7))
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5, 1e-20, -1e-20,
		43.7, -43.7, 87.3, -87.3, 87.2999, -87.2999, 88, -88, 500, -500,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001), // payload NaNs, one signaling
		1e-30, // pads the list to three full 8-lane blocks
	}
	var inputs [][]float32
	for _, n := range []int{1, 7, 8, 9, 16, 19, 64, 255, 256} {
		base := make([]float32, n)
		for i := range base {
			switch i % 3 {
			case 0:
				base[i] = float32(rng.NormFloat64() * 8)
			case 1:
				base[i] = float32(rng.NormFloat64() * 60)
			default:
				base[i] = specials[rng.Intn(len(specials))]
			}
		}
		inputs = append(inputs, base)
	}
	// Every special once in the vector path, then shifted by one so each
	// also lands in a scalar tail.
	inputs = append(inputs, specials, specials[1:])
	for _, base := range inputs {
		n := len(base)
		check := func(name string, vec func([]float32), scalar func(float32) float32) {
			got := append([]float32(nil), base...)
			vec(got)
			for i, x := range base {
				want := scalar(x)
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("%s n=%d [%d]: x=%v vector %v (%08x) scalar %v (%08x)",
						name, n, i, x, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
				}
			}
		}
		check("exp", fastExpSlice32, fastExp32)
		check("sigmoid", fastSigmoidSlice32, fastSigmoid32)
		check("tanh", fastTanhSlice32, fastTanh32)
	}
}

// TestLSTMGatesFastFusedMatchesGo pins vLSTMGatesF32 to the slice-section
// composition it fuses (lstmGatesFastGo on the same vector gate kernels):
// the activated gates left in pre, c' and h must agree bit for bit, over
// hidden widths of one to five 8-lane blocks, row counts on and off the
// worker split, and pre-activations that include ±Inf, NaN and values past
// the exp clamp.
func TestLSTMGatesFastFusedMatchesGo(t *testing.T) {
	if !useFastGates {
		t.Skip("AVX2 gate kernels unavailable on this machine/build")
	}
	rng := rand.New(rand.NewSource(13))
	specials := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		float32(math.Copysign(0, -1)), 88, -88, 500, -500,
	}
	for _, H := range []int{8, 16, 32, 40} {
		for _, m := range []int{1, 5, 128} {
			pre := make([]float32, m*4*H)
			for i := range pre {
				pre[i] = float32(rng.NormFloat64() * 4)
				if i%11 == 0 {
					pre[i] = specials[rng.Intn(len(specials))]
				}
			}
			bias := randSlice(rng, 4*H)
			c := randSlice(rng, m*H)
			c[0] = float32(math.NaN())
			run := func(k Kernel) (p, cNew, h []float32) {
				p = append([]float32(nil), pre...)
				cNew = make([]float32, m*H)
				h = make([]float32, m*H)
				ka := KernelArgs{S: [8][]float32{p, bias, c, h, cNew}, I: [6]int{H}}
				k(0, m/2, ka)
				k(m/2, m, ka)
				return p, cNew, h
			}
			pF, cF, hF := run(kLSTMGatesFast32)
			pG, cG, hG := run(lstmGatesFastGo)
			for _, cmp := range []struct {
				name      string
				got, want []float32
			}{{"pre", pF, pG}, {"cNew", cF, cG}, {"h", hF, hG}} {
				for i := range cmp.got {
					if math.Float32bits(cmp.got[i]) != math.Float32bits(cmp.want[i]) {
						t.Fatalf("H=%d m=%d %s[%d]: fused %v (%08x) go %v (%08x)", H, m, cmp.name, i,
							cmp.got[i], math.Float32bits(cmp.got[i]), cmp.want[i], math.Float32bits(cmp.want[i]))
					}
				}
			}
		}
	}
}

// TestFastGateSliceScalarPath forces the scalar dispatch on AVX2 hardware
// and checks the helpers still apply the scalar function elementwise — the
// noasm code path, exercised on the default build.
func TestFastGateSliceScalarPath(t *testing.T) {
	orig := useFastGates
	defer func() { useFastGates = orig }()
	useFastGates = false
	rng := rand.New(rand.NewSource(11))
	base := make([]float32, 37)
	for i := range base {
		base[i] = float32(rng.NormFloat64() * 20)
	}
	got := append([]float32(nil), base...)
	fastTanhSlice32(got)
	for i, x := range base {
		if want := fastTanh32(x); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("[%d]: x=%v got %v want %v", i, x, got[i], want)
		}
	}
}

func BenchmarkFastTanhSlice32(b *testing.B) {
	d := make([]float32, 4096)
	rng := rand.New(rand.NewSource(5))
	for i := range d {
		d[i] = float32(rng.NormFloat64() * 4)
	}
	b.SetBytes(int64(len(d) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fastTanhSlice32(d)
	}
}
