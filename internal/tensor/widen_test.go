package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The vector conversion (widen_amd64.s) must reproduce WidenDiv2's Go
// expression bit for bit, NaN payloads included: every sweep value goes
// through it, and the sweep pins hold those values to the scalar predictor.

// widenSpecials are float32 edge inputs: signed zeros and infinities, the
// subnormal range's ends, the normal range's ends, and NaNs of both signs,
// quiet and signalling, with and without payloads.
func widenSpecials() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, 0x7F800000, 0xFF800000, // ±0, ±Inf
		0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x00400000, // subnormals
		0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF, // smallest and largest normals
		0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC12345, 0x7FFFFFFF, // quiet NaNs
		0x7F800001, 0xFF800001, 0x7FA00000, 0xFF812345, 0x7FBFFFFF, // signalling NaNs
		0x3F800000, 0xBF800000, 0x3D4CCCCD, 0x4B7FFFFF, // 1, -1, 0.05, 2^24-1
	}
	xs := make([]float32, len(bits))
	for i, b := range bits {
		xs[i] = math.Float32frombits(b)
	}
	return xs
}

// widenDivisors are the (d0, d1) pairs the kernel is held to: the sweep's
// own (TargetScale 0.05 widened, TickPerNs), unit, negative, subnormal,
// zero, infinite and NaN divisors.
func widenDivisors() [][2]float64 {
	nan1 := math.Float64frombits(0x7FF8000000000123)
	nan2 := math.Float64frombits(0xFFF4000000000456) // signalling
	return [][2]float64{
		{float64(float32(0.05)), 10},
		{1, 1},
		{-3.25, 10},
		{0.05, -7},
		{5e-324, 10},
		{float64(float32(0.05)), 5e-324},
		{0, 10},
		{math.Copysign(0, -1), 1},
		{math.Inf(1), 10},
		{10, math.Inf(-1)},
		{math.NaN(), 10},
		{nan1, nan2},
		{1, nan2},
		{math.MaxFloat64, 1e-300},
	}
}

// requireWidenMatchesGo runs WidenDiv2 over dst/src and checks every element
// against the Go expression.
func requireWidenMatchesGo(t *testing.T, label string, dst []float64, src []float32, d0, d1 float64) {
	t.Helper()
	WidenDiv2(dst, src, d0, d1)
	for j, x := range src {
		want := float64(x) / d0 / d1
		if math.Float64bits(dst[j]) != math.Float64bits(want) {
			t.Fatalf("%s: element %d: float64(%v [%08x]) / %v / %v: vector %016x, Go %016x",
				label, j, x, math.Float32bits(x), d0, d1, math.Float64bits(dst[j]), math.Float64bits(want))
		}
	}
}

func skipWithoutWidenKernel(t *testing.T) {
	t.Helper()
	if !useFMA {
		t.Skip("vector conversion kernel unavailable on this machine/build")
	}
}

func TestWidenDiv2MatchesGo(t *testing.T) {
	skipWithoutWidenKernel(t)
	rng := rand.New(rand.NewSource(30))
	xs := widenSpecials()
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, math.Float32frombits(rng.Uint32())) // every exponent and payload
	}
	dst := make([]float64, len(xs))
	for _, d := range widenDivisors() {
		requireWidenMatchesGo(t, "bit patterns", dst, xs, d[0], d[1])
	}
}

// TestWidenDiv2TailsAndOffsets covers every tail length past the last full
// block and every misaligned start, on specials mixed with random values.
func TestWidenDiv2TailsAndOffsets(t *testing.T) {
	skipWithoutWidenKernel(t)
	rng := rand.New(rand.NewSource(31))
	specials := widenSpecials()
	src := make([]float32, 32)
	dst := make([]float64, 32)
	d0, d1 := float64(float32(0.05)), 10.0
	for n := 0; n <= 17; n++ {
		for off := 0; off <= 7; off++ {
			for i := range src {
				if rng.Intn(4) == 0 {
					src[i] = specials[rng.Intn(len(specials))]
				} else {
					src[i] = rng.Float32()*200 - 100
				}
				dst[i] = math.NaN()
			}
			requireWidenMatchesGo(t, "tail", dst[off:off+n], src[off:off+n], d0, d1)
			for i, v := range dst {
				if (i < off || i >= off+n) && !math.IsNaN(v) {
					t.Fatalf("n=%d off=%d: WidenDiv2 wrote element %d outside its range", n, off, i)
				}
			}
		}
	}
}
