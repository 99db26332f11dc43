// Package tensor provides float32 tensors with reverse-mode automatic
// differentiation, the numeric substrate for PerfVec's neural models.
//
// Tensors are dense, row-major, and mostly two-dimensional ([rows, cols]).
// Differentiable operations take a *Tape; passing a nil Tape runs the same
// computation in inference mode without recording anything.
//
// Ops allocate their outputs through the tape: inference mode allocates
// fresh tensors, while a recording tape (NewTapeArena) draws them from its
// free-list pool that Tape.Reset recycles — the training loop's steady
// state allocates no tensors at all. Tensors from a tape are only valid
// until that tape's next Reset (see Arena).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
//
// Grad is allocated lazily the first time a gradient flows into the tensor
// during Tape.Backward.
type Tensor struct {
	Shape []int
	Data  []float32
	Grad  []float32

	// gradBuf is the pooled gradient buffer of an arena tensor: Arena.Reset
	// detaches Grad here so the next step's ensureGrad re-attaches it
	// (zeroed) instead of allocating, while keeping the "Grad == nil means
	// no gradient flowed" convention intact across recycles.
	gradBuf []float32
}

// badShape formats the panic message for an invalid shape. It deliberately
// takes a fresh copy of the shape (see callers): formatting the caller's
// variadic slice directly would make every shape slice escape to the heap,
// and the `shape ...int` arguments of New/Arena.Get are on the
// allocation-free hot path — they must stay stack-allocated.
func badShape(dim int, shape []int) string {
	return fmt.Sprintf("tensor: invalid dimension %d in shape %v", dim, shape)
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(badShape(s, append([]int(nil), shape...)))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is not
// copied; it must have exactly the number of elements the shape implies.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Randn fills a new tensor with N(0, std) samples from rng. A nil rng skips
// the sampling and returns a zero tensor of the right shape — the
// structure-only form used to build parameter shells (e.g. data-parallel
// replicas that alias the master's weights) without paying for a random
// initialization that is immediately discarded.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	if rng == nil {
		return t
	}
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// XavierUniform returns a [fanOut, fanIn] weight matrix initialized with the
// Glorot/Xavier uniform scheme, the default for the models in this repo.
// A nil rng returns the zero structure-only shell (see Randn).
func XavierUniform(rng *rand.Rand, fanOut, fanIn int) *Tensor {
	t := New(fanOut, fanIn)
	if rng == nil {
		return t
	}
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * limit
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows returns the first dimension of a matrix.
func (t *Tensor) Rows() int { return t.Shape[0] }

// Cols returns the second dimension of a matrix; 1 for vectors.
func (t *Tensor) Cols() int {
	if len(t.Shape) < 2 {
		return 1
	}
	return t.Shape[1]
}

// At returns the element at row i, column j of a matrix.
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.Cols()+j] }

// Set stores v at row i, column j of a matrix.
func (t *Tensor) Set(i, j int, v float32) { t.Data[i*t.Cols()+j] = v }

// Row returns a view (no copy) of row i of a matrix.
func (t *Tensor) Row(i int) []float32 {
	c := t.Cols()
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy of the tensor (data only, not grad).
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data, Grad: t.Grad}
}

// ZeroGrad clears the gradient buffer if allocated.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// ensureGrad attaches the gradient buffer on first use, reusing the pooled
// buffer of a recycled arena tensor when one is available.
func (t *Tensor) ensureGrad() []float32 {
	if t.Grad == nil {
		if t.gradBuf != nil && len(t.gradBuf) == len(t.Data) {
			clear(t.gradBuf)
			t.Grad = t.gradBuf
		} else {
			t.Grad = make([]float32, len(t.Data))
		}
	}
	return t.Grad
}

// EnsureGrad returns the tensor's gradient buffer, attaching a zeroed one if
// none has been allocated yet. Exported for the trainer's gradient reduction.
func (t *Tensor) EnsureGrad() []float32 { return t.ensureGrad() }

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
