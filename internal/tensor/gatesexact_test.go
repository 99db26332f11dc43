package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The exact vector twin (gatesexact_amd64.s) must reproduce math.Exp,
// math.Tanh and the scalar float32 LSTM gate kernel bit for bit, NaN
// payloads included: it runs under the f32 tier, the tape and every pin
// that compares the two.

func skipWithoutExactGates(t *testing.T) {
	t.Helper()
	if !useExactGates {
		t.Skip("exact vector gate kernels unavailable on this machine/build")
	}
}

// expSpecials are math.Exp's edge inputs: signed zeros, infinities and NaN
// payloads, the overflow threshold and the exponent-overflow edge around
// it, the subnormal and underflow band, and magnitudes whose exponent
// conversion returns the integer indefinite value.
func expSpecials() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), // signaling, payload 1
		math.Float64frombits(0xFFF8000000000123), // negative quiet, payload
		math.Float64frombits(0x7FF4000000ABCDEF), // signaling, payload
		math.Float64frombits(0xFFF0000000000002), // negative signaling
		1, -1, 0.5, -0.5, 1e-300, -1e-300, 5e-324, -5e-324,
		7.09782712893384e+02, 709.78, 709.7, 709.79, 710, 1000,
		-708, -708.4, -708.39641853226408, -709, -709.09, -720, -740, -744.44,
		-745.13321910194110, -745.1332191019412, -746, -750, -1000,
		-1e10, 1e10, -3e9, -2.2e9, -1.5e9, -1e300, 1e300,
		-math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, x := range []float64{7.09782712893384e+02, 709.0895657128241, 709.08956571282405, -708.3964185322641, -745.1332191019411} {
		xs = append(xs, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	// Every exponent from the normal range's bottom up to overflow: the
	// points where n = round(x/ln2) steps, and a lane either side.
	for n := -1080; n <= 1030; n++ {
		x := (float64(n) + 0.5) * math.Ln2
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	return xs
}

// vec64 runs a float64 vector kernel over xs, padded to whole 4-lane
// groups.
func vec64(k func(dst, src *float64, groups int), xs []float64) []float64 {
	n := (len(xs) + 3) &^ 3
	src := append(append([]float64(nil), xs...), make([]float64, n-len(xs))...)
	dst := make([]float64, n)
	k(&dst[0], &src[0], n/4)
	return dst[:len(xs)]
}

func sameBits64(t *testing.T, name string, xs, got []float64, ref func(float64) float64) {
	t.Helper()
	for i, x := range xs {
		if want := ref(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%v) [%016x]: vector %v (%016x), scalar %v (%016x)", name,
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

func TestExactExpMatchesMathExp(t *testing.T) {
	skipWithoutExactGates(t)
	rng := rand.New(rand.NewSource(24))
	xs := expSpecials()
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64())) // every exponent and payload
	}
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, rng.Float64()*1500-750) // the computed range
	}
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, -708-rng.Float64()*38) // the subnormal band
	}
	sameBits64(t, "exp", xs, vec64(vExpExact, xs), math.Exp)
}

// TestExactTanh64MatchesMathTanh holds the float64 tanh core to math.Tanh
// before any rounding to float32 can hide a branch taken one input early.
func TestExactTanh64MatchesMathTanh(t *testing.T) {
	skipWithoutExactGates(t)
	rng := rand.New(rand.NewSource(30))
	var xs []float64
	for _, x := range expSpecials() {
		xs = append(xs, x, x/1000)
	}
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	for _, e := range []float64{0.625, halfMaxLog} {
		for _, x := range []float64{e, -e} {
			xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, rng.NormFloat64()*2, math.Float64frombits(rng.Uint64()))
	}
	sameBits64(t, "tanh", xs, vec64(vTanh64Exact, xs), math.Tanh)
}

// gateSpecials are float32 gate inputs at the branch points of σ and tanh:
// signed zeros, infinities and NaN payloads, tanh's 0.625 and 0.5*MAXLOG
// thresholds and their neighbours, and the saturated tails.
func gateSpecials() []float32 {
	xs := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()),
		math.Float32frombits(0x7F800001), // signaling
		math.Float32frombits(0xFFC00123), // negative quiet, payload
		math.Float32frombits(0x7FA0BEEF), // signaling, payload
		math.Float32frombits(0x00000001), // subnormal
		math.Float32frombits(0x80000001), // negative subnormal
		1e-20, -1e-20, 1e-8, -1e-8, 1, -1, 0.5, -0.5,
		20, -20, 87.3, -87.3, 88.8, -88.8, 103, -103, 745, -745, 746, -746,
		1e30, -1e30, math.MaxFloat32, -math.MaxFloat32,
	}
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	for _, e := range []float32{0.625, halfMaxLog} {
		for _, x := range []float32{e, -e} {
			xs = append(xs, x, math.Nextafter32(x, float32(math.Inf(1))), math.Nextafter32(x, float32(math.Inf(-1))))
		}
	}
	return xs
}

// gateInputs are gateSpecials followed by n seeded values: random bit
// patterns, wide normals and gate-range normals in turn.
func gateInputs(rng *rand.Rand, n int) []float32 {
	xs := gateSpecials()
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			xs = append(xs, math.Float32frombits(rng.Uint32()))
		case 1:
			xs = append(xs, float32(rng.NormFloat64()*40))
		default:
			xs = append(xs, float32(rng.NormFloat64()*2))
		}
	}
	return xs
}

// TestExactSigmoidTanhMatchScalar holds the float32 activations to
// sigmoid[float32] and tanh[float32] through the LSTM twin's acts output:
// one row whose i and g sections are the inputs, with a -0 bias so that
// x + bias is x for every x, -0 and NaN payloads included.
func TestExactSigmoidTanhMatchScalar(t *testing.T) {
	skipWithoutExactGates(t)
	rng := rand.New(rand.NewSource(25))
	xs := gateInputs(rng, 1<<20)
	H := len(xs) &^ 3
	xs = xs[:H]
	pre := make([]float32, 4*H)
	bias := make([]float32, 4*H)
	for j := range bias {
		bias[j] = float32(math.Copysign(0, -1))
	}
	for gate := 0; gate < 4; gate++ {
		copy(pre[gate*H:], xs)
	}
	acts := make([]float32, 4*H)
	c, h, cNew, tanhC := make([]float32, H), make([]float32, H), make([]float32, H), make([]float32, H)
	vLSTMGatesExact(&pre[0], &bias[0], &c[0], &h[0], &cNew[0], &acts[0], &tanhC[0], 1, H)
	for _, tc := range []struct {
		name   string
		got    []float32
		scalar func(float32) float32
	}{
		{"sigmoid", acts[:H], sigmoid[float32]},
		{"tanh", acts[2*H : 3*H], tanh[float32]},
	} {
		for i, x := range xs {
			if want := tc.scalar(x); math.Float32bits(tc.got[i]) != math.Float32bits(want) {
				t.Fatalf("%s(%v) [%08x]: vector %v (%08x), scalar %v (%08x)", tc.name,
					x, math.Float32bits(x), tc.got[i], math.Float32bits(tc.got[i]), want, math.Float32bits(want))
			}
		}
	}
}

func sameGateBits(t *testing.T, what string, H int, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s H=%d [%d]: vector %v (%08x), scalar %v (%08x)", what, H, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// gateBuffers returns makers of n-element slices: inputs of gate-range
// values with specials sprinkled in and a quarter NaNs whose payload is
// the buffer's own, so that wherever two NaNs meet the operand order
// decides which survives; and outputs filled with a sentinel, so a store
// past the kernel's range shows up as a mismatch.
func gateBuffers(rng *rand.Rand, n int) (in func() []float32, out func() []float32) {
	specials := gateSpecials()
	in = func() []float32 {
		nan := math.Float32frombits(0x7FC00000 | rng.Uint32()&0x803FFFFF)
		s := make([]float32, n)
		for i := range s {
			switch rng.Intn(16) {
			case 0:
				s[i] = specials[rng.Intn(len(specials))]
			case 1, 2, 3, 4:
				s[i] = nan
			default:
				s[i] = float32(rng.NormFloat64() * 3)
			}
		}
		return s
	}
	out = func() []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = -12345
		}
		return s
	}
	return in, out
}

func TestExactLSTMGatesMatchScalar(t *testing.T) {
	skipWithoutExactGates(t)
	rng := rand.New(rand.NewSource(27))
	const m = 7
	for _, H := range []int{1, 3, 4, 5, 8, 32, 33, 64} {
		for _, keep := range []bool{false, true} {
			in4, out4 := gateBuffers(rng, m*4*H)
			in1, out1 := gateBuffers(rng, m*H)
			inB, _ := gateBuffers(rng, 4*H)
			pre, bias, c := in4(), inB(), in1()
			ref := [7][]float32{pre, bias, c, out1(), out1(), nil, nil}
			got := [7][]float32{pre, bias, c, out1(), out1(), nil, nil}
			if keep {
				ref[5], ref[6] = out4(), out1()
				got[5], got[6] = out4(), out1()
			}
			lstmGates(0, m, 0, H, ref[0], ref[1], ref[2], ref[3], ref[4], ref[5], ref[6])
			for _, sp := range [][2]int{{0, m / 2}, {m / 2, m}} { // two row ranges
				kLSTMGates(sp[0], sp[1], KernelArgs{S: [8][]float32{got[0], got[1], got[2], got[3], got[4], got[5], got[6]}, I: [6]int{H}})
			}
			for i, name := range []string{"h'", "c'", "acts", "tanh(c')"} {
				sameGateBits(t, "lstm "+name, H, got[3+i], ref[3+i])
			}
		}
	}
}
