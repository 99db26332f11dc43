// Bitwise-equivalence and gradient tests for the fused attention softmax,
// mirroring gates_test.go: the fusion must reproduce every float32 of the
// SoftmaxRows(Scale(...)) composition it replaced — forward and backward —
// so transformer loss curves and serialized models are unchanged by it.
package tensor_test

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestAttentionSoftmaxBitwiseVsUnfused drives both forms through an
// attention-shaped graph (scores -> softmax -> value product -> loss) over
// identical inputs and requires the loss and every gradient to match bit for
// bit, including when the softmax input also feeds another op (the fused VJP
// must accumulate, not overwrite).
func TestAttentionSoftmaxBitwiseVsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const T, D = 6, 5
	scores := randTensor(rng, T, T)
	v := randTensor(rng, T, D)
	target := randTensor(rng, T, D)
	const scale = 0.4472136 // 1/sqrt(5), an attention-typical factor

	run := func(fused bool) (float32, []float32, []float32) {
		sc, vc := scores.Clone(), v.Clone()
		tp := tensor.NewTapeArena()
		var att *tensor.Tensor
		if fused {
			att = tensor.AttentionSoftmax(tp, sc, scale)
		} else {
			att = tensor.SoftmaxRows(tp, tensor.Scale(tp, sc, scale))
		}
		o := tensor.MatMul(tp, att, vc)
		loss := scalarLoss(tp, o, target)
		tp.Backward(loss)
		return loss.Data[0],
			append([]float32(nil), sc.Grad...),
			append([]float32(nil), vc.Grad...)
	}

	lossF, gsF, gvF := run(true)
	lossU, gsU, gvU := run(false)
	if lossF != lossU {
		t.Fatalf("fused loss %v != unfused loss %v", lossF, lossU)
	}
	sameBits(t, "scores.Grad", gsF, gsU)
	sameBits(t, "v.Grad", gvF, gvU)
}

// TestGradAttentionSoftmax validates the fused VJP against central finite
// differences directly, at several scales including 1 (the plain-softmax
// degenerate case) and a sub-unit attention scale.
func TestGradAttentionSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, scale := range []float32{1, 0.25, 0.70710678} {
		a := randTensor(rng, 3, 5)
		w := randTensor(rng, 3, 5)
		err := tensor.MaxGradError(a, func(tp *tensor.Tape) *tensor.Tensor {
			return tensor.Sum(tp, tensor.Mul(tp, tensor.AttentionSoftmax(tp, a, scale), w))
		}, 1e-2)
		if err > 2e-2 {
			t.Errorf("scale %v: AttentionSoftmax gradient error %v", scale, err)
		}
	}
}

// TestAttentionValueBitwiseVsSliceMatMul pins the packed per-head value
// product against the composition it stands for: SliceCols of each head's
// value block, MatMul, and ConcatCols of the head outputs. The packed
// output, the loss, and the gradients of every head's attention matrix and
// of the shared value matrix must match bit for bit.
func TestAttentionValueBitwiseVsSliceMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, sh := range [][3]int{{6, 8, 2}, {40, 64, 4}} {
		T, D, heads := sh[0], sh[1], sh[2]
		dk := D / heads
		v := randTensor(rng, T, D)
		atts := make([]*tensor.Tensor, heads)
		for h := range atts {
			atts[h] = randTensor(rng, T, T)
		}
		target := randTensor(rng, T, D)

		run := func(packed bool) (float32, []float32, [][]float32) {
			vc := v.Clone()
			ac := make([]*tensor.Tensor, heads)
			for h := range ac {
				ac[h] = atts[h].Clone()
			}
			tp := tensor.NewTapeArena()
			var out *tensor.Tensor
			if packed {
				out = tensor.Zeros(tp, T, D)
				for h := range ac {
					tensor.AttentionValue(tp, out, ac[h], vc, h*dk, (h+1)*dk)
				}
			} else {
				for h := range ac {
					o := tensor.MatMul(tp, ac[h], tensor.SliceCols(tp, vc, h*dk, (h+1)*dk))
					if out == nil {
						out = o
					} else {
						out = tensor.ConcatCols(tp, out, o)
					}
				}
			}
			loss := scalarLoss(tp, out, target)
			tp.Backward(loss)
			grads := [][]float32{append([]float32(nil), vc.Grad...)}
			for _, a := range ac {
				grads = append(grads, append([]float32(nil), a.Grad...))
			}
			return loss.Data[0], append([]float32(nil), out.Data...), grads
		}

		lossP, outP, gP := run(true)
		lossU, outU, gU := run(false)
		if lossP != lossU {
			t.Fatalf("T=%d D=%d: packed loss %v != composed loss %v", T, D, lossP, lossU)
		}
		sameBits(t, "output", outP, outU)
		sameBits(t, "v.Grad", gP[0], gU[0])
		for h := 1; h <= heads; h++ {
			sameBits(t, "att.Grad", gP[h], gU[h])
		}
	}
}
