package tensor

import (
	"math/rand"
	"testing"
)

// Gradient checks: every differentiable op's analytic gradient must match a
// central finite-difference estimate.

const gradTol = 2e-2 // float32 finite differences are noisy

func checkGrad(t *testing.T, name string, param *Tensor, build func(tp *Tape) *Tensor) {
	t.Helper()
	if err := MaxGradError(param, build, 1e-2); err > gradTol {
		t.Errorf("%s: max relative grad error %v > %v", name, err, gradTol)
	}
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := Randn(rng, 0.5, 3, 4)
	b := Randn(rng, 0.5, 4, 2)
	build := func(tp *Tape) *Tensor { return Sum(tp, MatMul(tp, a, b)) }
	checkGrad(t, "MatMul/a", a, build)
	checkGrad(t, "MatMul/b", b, build)
}

func TestGradMatMulBT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Randn(rng, 0.5, 3, 4)
	b := Randn(rng, 0.5, 5, 4)
	build := func(tp *Tape) *Tensor { return Sum(tp, Mul(tp, MatMulBT(tp, a, b), MatMulBT(tp, a, b))) }
	checkGrad(t, "MatMulBT/a", a, build)
	checkGrad(t, "MatMulBT/b", b, build)
}

func TestGradAddSubMul(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := Randn(rng, 0.5, 2, 3)
	b := Randn(rng, 0.5, 2, 3)
	build := func(tp *Tape) *Tensor {
		s := Add(tp, a, b)
		d := Sub(tp, s, b)
		return Sum(tp, Mul(tp, s, d))
	}
	checkGrad(t, "AddSubMul/a", a, build)
	checkGrad(t, "AddSubMul/b", b, build)
}

func TestGradAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := Randn(rng, 0.5, 4, 3)
	bias := Randn(rng, 0.5, 3)
	build := func(tp *Tape) *Tensor {
		o := AddBias(tp, a, bias)
		return Sum(tp, Mul(tp, o, o))
	}
	checkGrad(t, "AddBias/a", a, build)
	checkGrad(t, "AddBias/bias", bias, build)
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct {
		name string
		op   func(*Tape, *Tensor) *Tensor
	}{
		{"Sigmoid", Sigmoid},
		{"Tanh", Tanh},
		{"ReLU", ReLU},
	} {
		a := Randn(rng, 1.0, 3, 4)
		// Nudge values away from the ReLU kink where finite differences lie.
		for i := range a.Data {
			if a.Data[i] > -0.05 && a.Data[i] < 0.05 {
				a.Data[i] = 0.2
			}
		}
		op := tc.op
		build := func(tp *Tape) *Tensor {
			o := op(tp, a)
			return Sum(tp, Mul(tp, o, o))
		}
		checkGrad(t, tc.name, a, build)
	}
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := Randn(rng, 0.5, 3, 5)
	w := Randn(rng, 0.5, 3, 5)
	build := func(tp *Tape) *Tensor {
		return Sum(tp, Mul(tp, SoftmaxRows(tp, a), w))
	}
	checkGrad(t, "Softmax", a, build)
}

func TestGradConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := Randn(rng, 0.5, 3, 4)
	b := Randn(rng, 0.5, 3, 2)
	build := func(tp *Tape) *Tensor {
		c := ConcatCols(tp, a, b)
		left := SliceCols(tp, c, 0, 3)
		return Sum(tp, Mul(tp, left, left))
	}
	checkGrad(t, "ConcatSlice/a", a, build)
	// b's grad should be zero since it is sliced away; just confirm no panic.
	tp := NewTapeArena()
	loss := build(tp)
	tp.Backward(loss)
}

func TestGradSliceRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := Randn(rng, 0.5, 5, 3)
	build := func(tp *Tape) *Tensor {
		s := SliceRows(tp, a, 1, 4)
		return Sum(tp, Mul(tp, s, s))
	}
	checkGrad(t, "SliceRows", a, build)
}

func TestGradTransposeScale(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := Randn(rng, 0.5, 3, 4)
	build := func(tp *Tape) *Tensor {
		tr := Transpose(tp, a)
		return Sum(tp, Mul(tp, Scale(tp, tr, 2.5), tr))
	}
	checkGrad(t, "TransposeScale", a, build)
}

func TestGradMean(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := Randn(rng, 0.5, 4, 4)
	build := func(tp *Tape) *Tensor {
		return Mean(tp, Mul(tp, a, a))
	}
	checkGrad(t, "Mean", a, build)
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := Randn(rng, 1.0, 3, 6)
	gamma := Randn(rng, 0.5, 6)
	beta := Randn(rng, 0.5, 6)
	w := Randn(rng, 0.5, 3, 6)
	build := func(tp *Tape) *Tensor {
		return Sum(tp, Mul(tp, LayerNorm(tp, x, gamma, beta, 1e-5), w))
	}
	checkGrad(t, "LayerNorm/x", x, build)
	checkGrad(t, "LayerNorm/gamma", gamma, build)
	checkGrad(t, "LayerNorm/beta", beta, build)
}

func TestGradChainedComposite(t *testing.T) {
	// A small MLP-like chain exercising several ops together.
	rng := rand.New(rand.NewSource(21))
	x := Randn(rng, 0.5, 4, 6)
	w1 := Randn(rng, 0.5, 6, 5)
	b1 := Randn(rng, 0.5, 5)
	w2 := Randn(rng, 0.5, 5, 2)
	build := func(tp *Tape) *Tensor {
		h := Tanh(tp, AddBias(tp, MatMul(tp, x, w1), b1))
		o := MatMul(tp, h, w2)
		return Mean(tp, Mul(tp, o, o))
	}
	checkGrad(t, "Chain/x", x, build)
	checkGrad(t, "Chain/w1", w1, build)
	checkGrad(t, "Chain/b1", b1, build)
	checkGrad(t, "Chain/w2", w2, build)
}

func TestNilTapeRecordsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := Randn(rng, 0.5, 2, 2)
	var tp *Tape
	_ = Sum(tp, Mul(tp, a, a))
	if tp.Len() != 0 {
		t.Fatal("nil tape must not record ops")
	}
}

func TestTapeReset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := Randn(rng, 0.5, 2, 2)
	tp := NewTapeArena()
	Sum(tp, a)
	if tp.Len() != 1 {
		t.Fatalf("tape len = %d, want 1", tp.Len())
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatal("Reset did not clear the tape")
	}
}
