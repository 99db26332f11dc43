package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fma32Big is the oracle for fma32: a*b+c evaluated exactly in 200-bit
// arithmetic and rounded once to float32 (big.Float.Float32 rounds to
// nearest even, like the hardware).
func fma32Big(a, b, c float32) float32 {
	x := new(big.Float).SetPrec(200).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetPrec(200).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetPrec(200).SetFloat64(float64(c)))
	f, _ := x.Float32()
	return f
}

func checkFMA32(t *testing.T, a, b, c float32) {
	t.Helper()
	got := fma32(a, b, c)
	want := fma32Big(a, b, c)
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("fma32(%v, %v, %v) = %v (% x), want %v (% x)",
			a, b, c, got, got, want, want)
	}
}

// TestFMA32DoubleRounding pins the cases where naive float64 emulation
// (float32(float64(a)*float64(b) + float64(c))) double-rounds to the wrong
// float32: the exact sum sits just off a float32 rounding midpoint, the
// float64 addition lands exactly on it, and ties-to-even then picks the
// wrong neighbor. fma32's round-to-odd slow path must resolve them.
func TestFMA32DoubleRounding(t *testing.T) {
	// p = (1+2^-23)(2-2^-22) = 2 - 2^-45 exactly; c = 2^25+4.
	// Exact sum: (2^25+6) - 2^-45, which truly rounds down to 2^25+4, but
	// the float64 sum is exactly the midpoint 2^25+6 and ties-to-even would
	// round up to 2^25+8.
	a := float32(1 + 1.0/(1<<23))
	b := float32(2 - 2.0/(1<<23))
	c := float32(1<<25 + 4)
	if naive := float32(float64(a)*float64(b) + float64(c)); naive == fma32Big(a, b, c) {
		t.Fatalf("constructed case no longer double-rounds; naive = %v", naive)
	}
	checkFMA32(t, a, b, c)
	checkFMA32(t, -a, b, -c) // mirrored signs take the same slow path
	checkFMA32(t, a, -b, c)
}

// TestFMA32MatchesBigFloat cross-checks fma32 against exact arithmetic over
// full-range random inputs (subnormals, huge magnitudes, and float32
// overflow included) and a cross product of boundary values.
func TestFMA32MatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randF := func() float32 {
		for {
			f := math.Float32frombits(uint32(rng.Uint64()))
			if !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
				return f
			}
		}
	}
	for i := 0; i < 200000; i++ {
		a, b, c := randF(), randF(), randF()
		if math.IsNaN(float64(a)*float64(b) + float64(c)) {
			continue // 0*Inf etc. — no defined rounding to compare
		}
		checkFMA32(t, a, b, c)
	}
	special := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 2, 3,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
		1 + 1.0/(1<<23), 1 - 1.0/(1<<24),
		float32(math.Ldexp(1, -126)), float32(math.Ldexp(1.5, -130)),
	}
	for _, a := range special {
		for _, b := range special {
			for _, c := range special {
				if math.IsNaN(float64(a)*float64(b) + float64(c)) {
					continue
				}
				checkFMA32(t, a, b, c)
			}
		}
	}
}
