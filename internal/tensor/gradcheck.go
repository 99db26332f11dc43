package tensor

import "math"

// NumericGrad estimates d(loss)/d(param) by central finite differences.
// forward must rebuild the whole computation from the current contents of
// param.Data and return the scalar loss value.
func NumericGrad(param *Tensor, forward func() float32, eps float32) []float32 {
	grad := make([]float32, param.Len())
	for i := range param.Data {
		orig := param.Data[i]
		param.Data[i] = orig + eps
		up := forward()
		param.Data[i] = orig - eps
		down := forward()
		param.Data[i] = orig
		grad[i] = (up - down) / (2 * eps)
	}
	return grad
}

// MaxGradError runs an analytic backward pass and compares the gradient of
// param against a finite-difference estimate, returning the largest relative
// error. build must construct the computation on tp and return the scalar
// loss tensor; it is invoked repeatedly.
func MaxGradError(param *Tensor, build func(tp *Tape) *Tensor, eps float32) float64 {
	tp := NewTapeArena()
	loss := build(tp)
	param.ZeroGrad()
	tp.Backward(loss)
	analytic := append([]float32(nil), param.ensureGrad()...)

	numeric := NumericGrad(param, func() float32 {
		return build(nil).Data[0]
	}, eps)

	var worst float64
	for i := range analytic {
		a, n := float64(analytic[i]), float64(numeric[i])
		denom := math.Max(1, math.Max(math.Abs(a), math.Abs(n)))
		err := math.Abs(a-n) / denom
		if err > worst {
			worst = err
		}
	}
	return worst
}
