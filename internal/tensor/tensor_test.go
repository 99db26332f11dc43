package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	a := New(3, 4)
	if a.Rows() != 3 || a.Cols() != 4 || a.Len() != 12 {
		t.Fatalf("got rows=%d cols=%d len=%d", a.Rows(), a.Cols(), a.Len())
	}
	v := New(5)
	if v.Cols() != 1 {
		t.Fatalf("vector Cols = %d, want 1", v.Cols())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(3, 0)
}

func TestFromSlice(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", a.At(1, 2))
	}
	a.Set(0, 1, 9)
	if a.Data[1] != 9 {
		t.Fatalf("Set did not write underlying data")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong element count")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares data with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Data[3] = 7
	if a.At(1, 1) != 7 {
		t.Fatal("Reshape must alias the underlying data")
	}
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[2] = 10
	if a.At(1, 2) != 10 {
		t.Fatal("Row must be a view")
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(nil, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 5)
	b := Randn(rng, 1, 3, 5)
	got := MatMulBT(nil, a, b)
	want := MatMul(nil, a, Transpose(nil, b))
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatalf("MatMulBT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar loss")
		}
	}()
	tp := NewTapeArena()
	tp.Backward(New(2, 2))
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 3, 4, 6)
	s := SoftmaxRows(nil, a)
	for i := 0; i < 4; i++ {
		var sum float64
		for _, v := range s.Row(i) {
			if v < 0 {
				t.Fatal("softmax produced negative value")
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestConcatSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 3, 4)
	b := Randn(rng, 1, 3, 2)
	c := ConcatCols(nil, a, b)
	a2 := SliceCols(nil, c, 0, 4)
	b2 := SliceCols(nil, c, 4, 6)
	for i := range a.Data {
		if a.Data[i] != a2.Data[i] {
			t.Fatal("ConcatCols/SliceCols did not round-trip a")
		}
	}
	for i := range b.Data {
		if b.Data[i] != b2.Data[i] {
			t.Fatal("ConcatCols/SliceCols did not round-trip b")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(6)
		n := 1 + rng.Intn(6)
		a := Randn(rng, 1, m, n)
		b := Transpose(nil, Transpose(nil, a))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumMatchesManual(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	s := Sum(nil, a)
	if s.Data[0] != 10 {
		t.Fatalf("Sum = %v, want 10", s.Data[0])
	}
	m := Mean(nil, a)
	if m.Data[0] != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m.Data[0])
	}
}

func TestLayerNormRowStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 3, 5, 8)
	gamma := New(8)
	gamma.Fill(1)
	beta := New(8)
	out := LayerNorm(nil, x, gamma, beta, 1e-5)
	for i := 0; i < 5; i++ {
		var mean, varc float64
		for _, v := range out.Row(i) {
			mean += float64(v)
		}
		mean /= 8
		for _, v := range out.Row(i) {
			d := float64(v) - mean
			varc += d * d
		}
		varc /= 8
		if math.Abs(mean) > 1e-4 || math.Abs(varc-1) > 1e-2 {
			t.Fatalf("row %d: mean=%v var=%v", i, mean, varc)
		}
	}
}

// matmulRef is a naive reference implementation used to cross-check the
// parallel GEMM kernels.
func matmulRef(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += float64(a.At(i, l)) * float64(b.At(l, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func TestMatMulMatchesReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 1, 67, 33)
	b := Randn(rng, 1, 33, 41)
	got := MatMul(nil, a, b)
	want := matmulRef(a, b)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-3 {
			t.Fatalf("MatMul[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}
