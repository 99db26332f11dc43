// Bitwise-equivalence and gradient tests for the fused gate kernels and
// in-place epilogues. The fused ops' contract is stronger than "correct
// gradients": every float32 the unfused primitive composition produced —
// forward activations, every gradient, in the same accumulation order — must
// be reproduced exactly, so that training curves and serialized models are
// byte-for-byte unchanged by fusion. These tests build both graphs over
// identical parameters and compare outputs and gradients bit for bit,
// including multi-timestep chains where gradient accumulation order on the
// shared hidden/cell state is where a fused backward would most easily drift.
//
// The file is an external test package: the unfused references are built
// from the exported primitive ops, exactly as nn's cells did before fusion.
package tensor_test

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randTensor(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// scalarLoss reduces pred against target with the trainer's MSE form.
func scalarLoss(tp *tensor.Tape, pred, target *tensor.Tensor) *tensor.Tensor {
	d := tensor.Sub(tp, pred, target)
	return tensor.Mean(tp, tensor.Mul(tp, d, d))
}

func sameBits(t *testing.T, name string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// lstmStepUnfused is the pre-fusion LSTM cell body (nn/lstm.go before the
// LSTMGates kernel), kept here as the bitwise reference.
func lstmStepUnfused(tp *tensor.Tape, x, h, c, W, B *tensor.Tensor, H int) (*tensor.Tensor, *tensor.Tensor) {
	z := tensor.AddBias(tp, tensor.MatMulBTCat(tp, x, h, W), B)
	i := tensor.Sigmoid(tp, tensor.SliceCols(tp, z, 0, H))
	f := tensor.Sigmoid(tp, tensor.SliceCols(tp, z, H, 2*H))
	g := tensor.Tanh(tp, tensor.SliceCols(tp, z, 2*H, 3*H))
	o := tensor.Sigmoid(tp, tensor.SliceCols(tp, z, 3*H, 4*H))
	cNew := tensor.Add(tp, tensor.Mul(tp, f, c), tensor.Mul(tp, i, g))
	hNew := tensor.Mul(tp, o, tensor.Tanh(tp, cNew))
	return hNew, cNew
}

// gruStepUnfused is the pre-fusion GRU cell body (nn/gru.go before the
// GRUGates/GateCombine kernels).
func gruStepUnfused(tp *tensor.Tape, x, h, Wzr, Bzr, Wn, Bn *tensor.Tensor, H int) *tensor.Tensor {
	zr := tensor.Sigmoid(tp, tensor.AddBias(tp, tensor.MatMulBTCat(tp, x, h, Wzr), Bzr))
	z := tensor.SliceCols(tp, zr, 0, H)
	r := tensor.SliceCols(tp, zr, H, 2*H)
	n := tensor.Tanh(tp, tensor.AddBias(tp, tensor.MatMulBTCat(tp, x, tensor.Mul(tp, r, h), Wn), Bn))
	return tensor.Add(tp, tensor.Sub(tp, n, tensor.Mul(tp, z, n)), tensor.Mul(tp, z, h))
}

// TestLSTMGatesBitwiseVsUnfused runs a two-layer, multi-timestep LSTM — once
// through LSTMGates, once through the primitive composition — over identical
// parameters and inputs, and requires the loss and every parameter and input
// gradient to match bit for bit. The multi-step chain exercises the external
// cell-state gradient path (c' of step t feeds step t+1) and the
// hidden-state gradient accumulation order across ops.
func TestLSTMGatesBitwiseVsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const B, F, H, T = 5, 7, 6, 4
	W1 := randTensor(rng, 4*H, F+H)
	B1 := randTensor(rng, 1, 4*H).Reshape(4 * H)
	W2 := randTensor(rng, 4*H, H+H)
	B2 := randTensor(rng, 1, 4*H).Reshape(4 * H)
	xs := make([]*tensor.Tensor, T)
	for t2 := range xs {
		xs[t2] = randTensor(rng, B, F)
	}
	target := randTensor(rng, B, H)

	run := func(fused bool) (float32, [][]float32) {
		// Deep-copy the parameters so each graph accumulates its own grads.
		params := []*tensor.Tensor{W1.Clone(), B1.Clone(), W2.Clone(), B2.Clone()}
		w1, b1, w2, b2 := params[0], params[1], params[2], params[3]
		inputs := make([]*tensor.Tensor, T)
		for i, x := range xs {
			inputs[i] = x.Clone()
		}
		tp := tensor.NewTapeArena()
		step := func(x, h, c, w, b *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
			if fused {
				return tensor.LSTMGates(tp, tensor.MatMulBTCat(tp, x, h, w), b, c)
			}
			return lstmStepUnfused(tp, x, h, c, w, b, H)
		}
		h1 := tensor.Zeros(tp, B, H)
		c1 := tensor.Zeros(tp, B, H)
		h2 := tensor.Zeros(tp, B, H)
		c2 := tensor.Zeros(tp, B, H)
		for _, x := range inputs {
			h1, c1 = step(x, h1, c1, w1, b1)
			h2, c2 = step(h1, h2, c2, w2, b2)
		}
		loss := scalarLoss(tp, h2, target)
		tp.Backward(loss)
		grads := make([][]float32, 0, len(params)+len(inputs))
		for _, p := range params {
			grads = append(grads, append([]float32(nil), p.Grad...))
		}
		for _, x := range inputs {
			grads = append(grads, append([]float32(nil), x.Grad...))
		}
		return loss.Data[0], grads
	}

	lossF, gradsF := run(true)
	lossU, gradsU := run(false)
	if lossF != lossU {
		t.Fatalf("fused loss %v != unfused loss %v", lossF, lossU)
	}
	names := []string{"W1.Grad", "B1.Grad", "W2.Grad", "B2.Grad"}
	for i := range gradsF {
		name := "x.Grad"
		if i < len(names) {
			name = names[i]
		}
		sameBits(t, name, gradsF[i], gradsU[i])
	}
}

// TestGRUGatesBitwiseVsUnfused is the GRU analogue: two layers, multiple
// timesteps, fused GRUGates+GateCombine against the primitive composition,
// bitwise on loss and all gradients.
func TestGRUGatesBitwiseVsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const B, F, H, T = 4, 6, 5, 4
	Wzr1 := randTensor(rng, 2*H, F+H)
	Bzr1 := randTensor(rng, 1, 2*H).Reshape(2 * H)
	Wn1 := randTensor(rng, H, F+H)
	Bn1 := randTensor(rng, 1, H).Reshape(H)
	Wzr2 := randTensor(rng, 2*H, H+H)
	Bzr2 := randTensor(rng, 1, 2*H).Reshape(2 * H)
	Wn2 := randTensor(rng, H, H+H)
	Bn2 := randTensor(rng, 1, H).Reshape(H)
	xs := make([]*tensor.Tensor, T)
	for t2 := range xs {
		xs[t2] = randTensor(rng, B, F)
	}
	target := randTensor(rng, B, H)

	run := func(fused bool) (float32, [][]float32) {
		params := []*tensor.Tensor{
			Wzr1.Clone(), Bzr1.Clone(), Wn1.Clone(), Bn1.Clone(),
			Wzr2.Clone(), Bzr2.Clone(), Wn2.Clone(), Bn2.Clone(),
		}
		inputs := make([]*tensor.Tensor, T)
		for i, x := range xs {
			inputs[i] = x.Clone()
		}
		tp := tensor.NewTapeArena()
		step := func(x, h, wzr, bzr, wn, bn *tensor.Tensor) *tensor.Tensor {
			if fused {
				z, rh := tensor.GRUGates(tp, tensor.MatMulBTCat(tp, x, h, wzr), bzr, h)
				return tensor.GateCombine(tp, z, tensor.MatMulBTCat(tp, x, rh, wn), bn, h)
			}
			return gruStepUnfused(tp, x, h, wzr, bzr, wn, bn, H)
		}
		h1 := tensor.Zeros(tp, B, H)
		h2 := tensor.Zeros(tp, B, H)
		for _, x := range inputs {
			h1 = step(x, h1, params[0], params[1], params[2], params[3])
			h2 = step(h1, h2, params[4], params[5], params[6], params[7])
		}
		loss := scalarLoss(tp, h2, target)
		tp.Backward(loss)
		grads := make([][]float32, 0, len(params)+len(inputs))
		for _, p := range params {
			grads = append(grads, append([]float32(nil), p.Grad...))
		}
		for _, x := range inputs {
			grads = append(grads, append([]float32(nil), x.Grad...))
		}
		return loss.Data[0], grads
	}

	lossF, gradsF := run(true)
	lossU, gradsU := run(false)
	if lossF != lossU {
		t.Fatalf("fused loss %v != unfused loss %v", lossF, lossU)
	}
	names := []string{
		"Wzr1.Grad", "Bzr1.Grad", "Wn1.Grad", "Bn1.Grad",
		"Wzr2.Grad", "Bzr2.Grad", "Wn2.Grad", "Bn2.Grad",
	}
	for i := range gradsF {
		name := "x.Grad"
		if i < len(names) {
			name = names[i]
		}
		sameBits(t, name, gradsF[i], gradsU[i])
	}
}

// TestInPlaceEpiloguesBitwise compares the in-place bias/activation
// epilogues against their out-of-place forms through a full
// forward/backward, bitwise on outputs and all gradients.
func TestInPlaceEpiloguesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const M, K, N = 4, 5, 3
	x := randTensor(rng, M, K)
	w := randTensor(rng, N, K)
	bias := randTensor(rng, 1, N).Reshape(N)
	target := randTensor(rng, M, N)

	type actPair struct {
		name     string
		inPlace  func(*tensor.Tape, *tensor.Tensor) *tensor.Tensor
		outPlace func(*tensor.Tape, *tensor.Tensor) *tensor.Tensor
	}
	for _, act := range []actPair{
		{"Sigmoid", tensor.SigmoidInPlace, tensor.Sigmoid},
		{"Tanh", tensor.TanhInPlace, tensor.Tanh},
		{"ReLU", tensor.ReLUInPlace, tensor.ReLU},
	} {
		run := func(inPlace bool) (float32, []float32, []float32, []float32) {
			xc, wc, bc := x.Clone(), w.Clone(), bias.Clone()
			tp := tensor.NewTapeArena()
			y := tensor.MatMulBT(tp, xc, wc)
			if inPlace {
				y = act.inPlace(tp, tensor.AddBiasInPlace(tp, y, bc))
			} else {
				y = act.outPlace(tp, tensor.AddBias(tp, y, bc))
			}
			loss := scalarLoss(tp, y, target)
			tp.Backward(loss)
			return loss.Data[0],
				append([]float32(nil), xc.Grad...),
				append([]float32(nil), wc.Grad...),
				append([]float32(nil), bc.Grad...)
		}
		lossI, gxI, gwI, gbI := run(true)
		lossO, gxO, gwO, gbO := run(false)
		if lossI != lossO {
			t.Fatalf("%s: in-place loss %v != out-of-place loss %v", act.name, lossI, lossO)
		}
		sameBits(t, act.name+" x.Grad", gxI, gxO)
		sameBits(t, act.name+" w.Grad", gwI, gwO)
		sameBits(t, act.name+" bias.Grad", gbI, gbO)
	}
}

// TestFusedGateGradchecks validates the fused backward passes against
// central finite differences directly, independent of the unfused reference.
func TestFusedGateGradchecks(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const B, H = 3, 4

	t.Run("LSTMGates", func(t *testing.T) {
		pre := randTensor(rng, B, 4*H)
		bias := randTensor(rng, 1, 4*H).Reshape(4 * H)
		c := randTensor(rng, B, H)
		for _, param := range []*tensor.Tensor{pre, bias, c} {
			err := tensor.MaxGradError(param, func(tp *tensor.Tape) *tensor.Tensor {
				h, cn := tensor.LSTMGates(tp, pre, bias, c)
				return tensor.Sum(tp, tensor.Add(tp, h, cn))
			}, 1e-2)
			if err > 2e-2 {
				t.Errorf("LSTMGates gradient error %v for %v", err, param.Shape)
			}
		}
	})

	t.Run("GRUGatesCombine", func(t *testing.T) {
		preZR := randTensor(rng, B, 2*H)
		bzr := randTensor(rng, 1, 2*H).Reshape(2 * H)
		preN := randTensor(rng, B, H)
		bn := randTensor(rng, 1, H).Reshape(H)
		h := randTensor(rng, B, H)
		for _, param := range []*tensor.Tensor{preZR, bzr, preN, bn, h} {
			err := tensor.MaxGradError(param, func(tp *tensor.Tape) *tensor.Tensor {
				z, rh := tensor.GRUGates(tp, preZR, bzr, h)
				out := tensor.GateCombine(tp, z, preN, bn, h)
				return tensor.Sum(tp, tensor.Add(tp, out, rh))
			}, 1e-2)
			if err > 2e-2 {
				t.Errorf("GRUGates/GateCombine gradient error %v for %v", err, param.Shape)
			}
		}
	})
}
