package nn

import "repro/internal/tensor"

// MSE returns the mean squared error between pred and target as a scalar
// tensor. This is the training loss used throughout the paper (§IV-D).
func MSE(tp *tensor.Tape, pred, target *tensor.Tensor) *tensor.Tensor {
	d := tensor.Sub(tp, pred, target)
	return tensor.Mean(tp, tensor.Mul(tp, d, d))
}
