package nn

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters in place from their accumulated gradients and
// zeroes the gradients afterwards.
type Optimizer interface {
	// Step applies one update to every parameter.
	Step(params []*tensor.Tensor)
	// SetLR changes the learning rate (used by LR schedules).
	SetLR(lr float32)
	// LR reports the current learning rate.
	LR() float32
}

// Adam implements the Adam optimizer (Kingma & Ba), the optimizer used to
// train PerfVec (§IV-D: initial LR 1e-3, decayed 10x every 10 epochs).
type Adam struct {
	lr, beta1, beta2, eps float32
	t                     int
	m, v                  map[*tensor.Tensor][]float32
}

// NewAdam returns an Adam optimizer with standard hyperparameters
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{
		lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make(map[*tensor.Tensor][]float32),
		v: make(map[*tensor.Tensor][]float32),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*tensor.Tensor) {
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.beta2), float64(a.t)))
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = make([]float32, p.Len())
			a.m[p] = m
			a.v[p] = make([]float32, p.Len())
		}
		v := a.v[p]
		// Per-element updates are independent, so the loop parallelizes
		// across the worker pool with bitwise-identical results at any
		// chunking (the transcendental sqrt makes large tensors worth it).
		// Dispatched as a typed kernel: Adam runs once per parameter per
		// step, and the former loop closures were among the last steady-state
		// heap allocations of the training hot path.
		tensor.ParallelKernel(len(p.Grad), len(p.Grad)*8, kAdamStep, tensor.KernelArgs{
			S: [8][]float32{p.Grad, p.Data, m, v},
			F: [6]float32{a.beta1, a.beta2, bc1, bc2, a.lr, a.eps},
		})
		p.ZeroGrad()
	}
}

// kAdamStep: S0=grad, S1=data, S2=m, S3=v; F0=beta1, F1=beta2, F2=bc1,
// F3=bc2, F4=lr, F5=eps.
func kAdamStep(s, e int, ka tensor.KernelArgs) {
	grad, data, m, v := ka.S[0], ka.S[1], ka.S[2], ka.S[3]
	beta1, beta2, bc1, bc2, lr, eps := ka.F[0], ka.F[1], ka.F[2], ka.F[3], ka.F[4], ka.F[5]
	for i := s; i < e; i++ {
		g := grad[i]
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		mh := m[i] / bc1
		vh := v[i] / bc2
		data[i] -= lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float32) { a.lr = lr }

// LR implements Optimizer.
func (a *Adam) LR() float32 { return a.lr }

// StepDecay is the paper's learning-rate schedule: multiply the LR by Factor
// every Every epochs.
type StepDecay struct {
	Every  int
	Factor float32
}

// Apply adjusts opt's learning rate for the given (zero-based) epoch, derived
// from the initial rate initLR.
func (s StepDecay) Apply(opt Optimizer, epoch int, initLR float32) {
	if s.Every <= 0 {
		return
	}
	lr := initLR
	for i := 0; i < epoch/s.Every; i++ {
		lr *= s.Factor
	}
	opt.SetLR(lr)
}

// ClipGradients scales gradients so their global L2 norm is at most maxNorm.
// It returns the pre-clip norm. RNN training uses this to avoid the exploding
// gradients the paper cites as the reason long traces are intractable.
func ClipGradients(params []*tensor.Tensor, maxNorm float32) float32 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
}
