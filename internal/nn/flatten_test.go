package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestFlattenSeqOrderAndShape(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	out := FlattenSeq(nil, []*tensor.Tensor{a, b})
	if out.Rows() != 2 || out.Cols() != 4 {
		t.Fatalf("FlattenSeq shape %v, want [2 4]", out.Shape)
	}
	want := []float32{1, 2, 5, 6, 3, 4, 7, 8}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("FlattenSeq[%d] = %v, want %v (timestep-major per row)", i, out.Data[i], w)
		}
	}
}

func TestTransformerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m := NewTransformer(rng, 4, 5, 8, 2, 1)
	xs := randSeq(rng, 4, 3, 5)
	a := ForwardSeq(nil, m, xs)
	b := ForwardSeq(nil, m, xs)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("transformer forward is not deterministic")
		}
	}
}

func TestTransformerRejectsLongSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := NewTransformer(rng, 2, 5, 8, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sequence longer than seqLen")
		}
	}()
	ForwardSeq(nil, m, randSeq(rng, 3, 2, 5))
}

func TestTransformerRejectsIndivisibleHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim %% heads != 0")
		}
	}()
	NewTransformer(rng, 4, 5, 9, 2, 1)
}

func TestGRUStateEvolves(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := NewGRU(rng, 4, 6, 1)
	short := randSeq(rng, 1, 2, 4)
	long := append(append([]*tensor.Tensor{}, short...), randSeq(rng, 2, 2, 4)...)
	a := ForwardSeq(nil, m, short)
	b := ForwardSeq(nil, m, long)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("GRU output identical for different-length sequences")
	}
}
