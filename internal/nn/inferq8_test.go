package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestForwardSeqQ8Close bounds the quantized forward against the float64
// oracle per architecture. The tolerance is coarse by design — dynamic 7-bit
// activation quantization injects ~1e-2-scale noise per GEMM — but must hold
// across every encoder kind; the pinned serving epsilon with program-level
// batching lives in internal/perfvec's drift harness.
func TestForwardSeqQ8Close(t *testing.T) {
	const featDim, T, batch = 13, 8, 9
	for name, enc := range encoders(rand.New(rand.NewSource(31)), featDim) {
		t.Run(name, func(t *testing.T) {
			_, xs32, xs64 := seqInputs(rand.New(rand.NewSource(37)), T, batch, featDim)
			q8 := NewQ8Encoder(enc)
			if q8.OutDim() != enc.OutDim() {
				t.Fatalf("OutDim %d != %d", q8.OutDim(), enc.OutDim())
			}
			got := ForwardSeqQ8(q8, &tensor.Slab32{}, xs32)
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
			// Quantization noise scales with the activations' dynamic range,
			// not with each element's own magnitude — normalize by the
			// encoding's max magnitude rather than element-wise.
			for i := range got.Data {
				if rel := math.Abs(float64(got.Data[i])-want.Data[i]) / maxAbs; rel > 0.06 {
					t.Fatalf("element %d: q8 %v vs f64 %v (range-rel err %.2e, range %.3g)",
						i, got.Data[i], want.Data[i], rel, maxAbs)
				}
			}
		})
	}
}

// TestForwardSeqQ8Deterministic pins run-to-run determinism on recycled slab
// memory: weight quantization happens once at construction and activation
// quantization is a pure function of the inputs, so two passes must be
// bitwise identical.
func TestForwardSeqQ8Deterministic(t *testing.T) {
	const featDim, T, batch = 13, 8, 9
	for name, enc := range encoders(rand.New(rand.NewSource(41)), featDim) {
		t.Run(name, func(t *testing.T) {
			_, xs32, _ := seqInputs(rand.New(rand.NewSource(43)), T, batch, featDim)
			q8 := NewQ8Encoder(enc)
			s := &tensor.Slab32{}
			var want []float32
			for pass := 0; pass < 2; pass++ {
				s.Reset()
				got := ForwardSeqQ8(q8, s, xs32)
				if pass == 0 {
					want = append([]float32(nil), got.Data...)
					continue
				}
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
						t.Fatalf("pass %d element %d: %v != %v", pass, i, got.Data[i], want[i])
					}
				}
			}
		})
	}
}

// TestForwardSeqQ8SteadyStateAllocs pins the quantized encode to zero heap
// allocations once the slab is warm.
func TestForwardSeqQ8SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const featDim, T, batch = 13, 8, 32
	enc := NewLSTM(rand.New(rand.NewSource(3)), featDim, 32, 2)
	q8 := NewQ8Encoder(enc)
	_, xs32, _ := seqInputs(rand.New(rand.NewSource(4)), T, batch, featDim)
	s := &tensor.Slab32{}
	pass := func() {
		s.Reset()
		ForwardSeqQ8(q8, s, xs32)
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if n := testing.AllocsPerRun(50, pass); n > 0 {
		t.Fatalf("steady-state ForwardSeqQ8 allocates %.1f/op, want 0", n)
	}
}
