package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func encoders(rng *rand.Rand, featDim int) map[string]SeqEncoder {
	return map[string]SeqEncoder{
		"lstm":        NewLSTM(rng, featDim, 16, 2),
		"bilstm":      NewBiLSTM(rng, featDim, 16, 2),
		"gru":         NewGRU(rng, featDim, 16, 2),
		"transformer": NewTransformer(rng, 8, featDim, 16, 2, 2),
		"linear":      NewLinearSeq(rng, 8, featDim, 16),
		"mlp":         NewMLPSeq(rng, 8, featDim, 16, 2, 16),
	}
}

func seqInputs(rng *rand.Rand, T, batch, featDim int) ([]*tensor.Tensor, []tensor.Tensor32, []tensor.Tensor64) {
	xs := make([]*tensor.Tensor, T)
	xs32 := make([]tensor.Tensor32, T)
	xs64 := make([]tensor.Tensor64, T)
	for t := range xs {
		x := tensor.New(batch, featDim)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		xs[t] = x
		xs32[t] = tensor.Tensor32{Data: x.Data, R: batch, C: featDim}
		xs64[t] = tensor.Widen(x)
	}
	return xs, xs32, xs64
}

// TestForwardSeq32Bitwise pins the central contract of the fast path: for
// every architecture, the forward-only float32 encode is bitwise identical
// to the tape ForwardSeq.
func TestForwardSeq32Bitwise(t *testing.T) {
	const featDim, T, batch = 13, 8, 9
	for name, enc := range encoders(rand.New(rand.NewSource(5)), featDim) {
		t.Run(name, func(t *testing.T) {
			xs, xs32, _ := seqInputs(rand.New(rand.NewSource(17)), T, batch, featDim)
			want := ForwardSeq(nil, enc, xs)
			s := &tensor.Slab32{}
			for pass := 0; pass < 2; pass++ { // second pass runs on recycled slab memory
				s.Reset()
				got := ForwardSeq32(enc, s, xs32)
				if got.R != want.Rows() || got.C != want.Cols() {
					t.Fatalf("shape [%d,%d] != [%d,%d]", got.R, got.C, want.Rows(), want.Cols())
				}
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("pass %d: element %d differs: %v != %v", pass, i, got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// TestOracle64Close sanity-checks the float64 oracle against the float32
// path per architecture: widened weights, same graph, so encodings must
// agree to well within the serving epsilon (the full drift harness with
// program-level batching lives in internal/perfvec).
func TestOracle64Close(t *testing.T) {
	const featDim, T, batch = 13, 8, 9
	for name, enc := range encoders(rand.New(rand.NewSource(23)), featDim) {
		t.Run(name, func(t *testing.T) {
			_, xs32, xs64 := seqInputs(rand.New(rand.NewSource(29)), T, batch, featDim)
			got := ForwardSeq32(enc, &tensor.Slab32{}, xs32)
			want := NewOracle64(enc).ForwardSeq(xs64)
			if got.R != want.R || got.C != want.C {
				t.Fatalf("shape [%d,%d] != [%d,%d]", got.R, got.C, want.R, want.C)
			}
			var maxAbs float64
			for _, v := range want.Data {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			floor := 1e-3 * maxAbs
			for i := range got.Data {
				denom := math.Abs(want.Data[i])
				if denom < floor {
					denom = floor
				}
				if rel := math.Abs(float64(got.Data[i])-want.Data[i]) / denom; rel > 1e-4 {
					t.Fatalf("element %d: f32 %v vs f64 %v (rel err %.2e)", i, got.Data[i], want.Data[i], rel)
				}
			}
		})
	}
}

// TestForwardSeq32SteadyStateAllocs pins the forward-only encode to zero
// heap allocations once the slab and its packing scratch are warm.
func TestForwardSeq32SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc pin runs in the non-race suite")
	}
	const featDim, T, batch = 13, 8, 32
	enc := NewLSTM(rand.New(rand.NewSource(3)), featDim, 32, 2)
	_, xs32, _ := seqInputs(rand.New(rand.NewSource(4)), T, batch, featDim)
	s := &tensor.Slab32{}
	pass := func() {
		s.Reset()
		ForwardSeq32(enc, s, xs32)
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if n := testing.AllocsPerRun(50, pass); n > 0 {
		t.Fatalf("steady-state ForwardSeq32 allocates %.1f/op, want 0", n)
	}
}
