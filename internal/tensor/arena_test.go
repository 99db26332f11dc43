package tensor

import (
	"testing"
	"unsafe"
)

// TestArenaReusesBuffers checks that a Get after Reset hands back the same
// backing array, zeroed, and that the hit/miss counters track it.
func TestArenaReusesBuffers(t *testing.T) {
	a := NewArena()
	x := a.Get(3, 4)
	if h, m := a.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first Get: hits=%d misses=%d", h, m)
	}
	x.Fill(7)
	ptr := unsafe.SliceData(x.Data)
	a.Reset()
	y := a.Get(4, 3) // same element count, different shape
	if unsafe.SliceData(y.Data) != ptr {
		t.Error("Get after Reset did not reuse the pooled buffer")
	}
	if y.Rows() != 4 || y.Cols() != 3 {
		t.Errorf("recycled tensor has shape %v, want [4 3]", y.Shape)
	}
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("recycled tensor not zeroed at %d: %v", i, v)
		}
	}
	if h, m := a.Stats(); h != 1 || m != 1 {
		t.Errorf("after recycle: hits=%d misses=%d, want 1/1", h, m)
	}
}

// TestArenaGradRecycling checks the gradient-buffer pooling: a recycled
// tensor starts with a nil Grad (so backward's "did gradient flow" checks
// stay correct), and the first ensureGrad re-attaches the old buffer zeroed
// instead of allocating.
func TestArenaGradRecycling(t *testing.T) {
	a := NewArena()
	x := a.Get(8)
	g := x.ensureGrad()
	for i := range g {
		g[i] = float32(i + 1)
	}
	gptr := unsafe.SliceData(g)
	a.Reset()
	y := a.Get(8)
	if y.Grad != nil {
		t.Fatal("recycled tensor has a non-nil Grad; stale gradients would leak into backward")
	}
	g2 := y.ensureGrad()
	if unsafe.SliceData(g2) != gptr {
		t.Error("ensureGrad did not reuse the pooled gradient buffer")
	}
	for i, v := range g2 {
		if v != 0 {
			t.Fatalf("re-attached gradient not zeroed at %d: %v", i, v)
		}
	}
}

// TestTapeArenaSteadyState runs the same small graph forward+backward on one
// arena tape repeatedly: after the first iteration the arena must stop
// missing — the op layer is steady-state tensor-allocation-free.
func TestTapeArenaSteadyState(t *testing.T) {
	tp := NewTapeArena()
	w := New(4, 4)
	x := New(4, 4)
	for i := range w.Data {
		w.Data[i] = float32(i%5) * 0.3
		x.Data[i] = float32(i%3) * 0.7
	}
	run := func() {
		tp.Reset()
		y := MatMul(tp, x, w)
		z := Tanh(tp, y)
		s := Mean(tp, Mul(tp, z, z))
		tp.Backward(s)
	}
	run()
	_, _, warm := tp.Stats()
	for i := 0; i < 5; i++ {
		run()
	}
	if _, _, m := tp.Stats(); m != warm {
		t.Errorf("arena missed %d times after warm-up; steady state must reuse every tensor", m-warm)
	}
}

// TestZerosInferenceMode checks the nil-tape path allocates fresh tensors.
func TestZerosInferenceMode(t *testing.T) {
	z := Zeros(nil, 2, 3)
	if z.Rows() != 2 || z.Cols() != 3 {
		t.Fatalf("Zeros(nil, 2, 3) has shape %v", z.Shape)
	}
	a := New(2, 2)
	a.Fill(1)
	if x, y := Add(nil, a, a), Add(nil, a, a); unsafe.SliceData(x.Data) == unsafe.SliceData(y.Data) {
		t.Error("nil-tape ops must allocate fresh outputs")
	}
}
