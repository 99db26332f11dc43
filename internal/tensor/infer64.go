package tensor

// Float64 oracle tensor ops. Tensor64 mirrors Tensor32's forward-only shape
// (no tape, no gradients) but allocates a fresh output per op and runs
// serially: this is the reference the epsilon drift harnesses hold the
// float32 and int8 tiers against, not a hot path. Each op runs the float64
// instantiation of the tape op's own row kernel (gates.go, ops.go,
// stack.go), so every transcendental and reduction is computed in float64
// by the same loop. Widening float32 weights and features to float64 is
// exact, so the oracle sees bit-for-bit the same inputs the fast path does.
//
// LayerNorm64 is the one op with its own output loop: it computes
// gamma*(v-mean)*invStd, while the float32 kernel rounds the normalized
// value first, gamma*((v-mean)*invStd), which it keeps for the backward.
// No single expression gives both widths their current bits; only the row
// statistics (meanInvStd) are shared.

// Tensor64 is a row-major float64 matrix with value semantics.
type Tensor64 struct {
	Data []float64
	R, C int
}

// NewTensor64 returns a zeroed r x c matrix.
func NewTensor64(r, c int) Tensor64 {
	return Tensor64{Data: make([]float64, r*c), R: r, C: c}
}

// Widen converts a float32 tensor to its exact float64 image.
func Widen(t *Tensor) Tensor64 {
	out := Tensor64{Data: make([]float64, len(t.Data)), R: t.Rows(), C: t.Cols()}
	for i, v := range t.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// Rows returns the number of rows.
func (t Tensor64) Rows() int { return t.R }

// Cols returns the number of columns.
func (t Tensor64) Cols() int { return t.C }

// Row returns row i as a slice aliasing the tensor's storage.
func (t Tensor64) Row(i int) []float64 { return t.Data[i*t.C : (i+1)*t.C] }

// MatMul64 returns a[m,k] * b[k,n].
func MatMul64(a, b Tensor64) Tensor64 {
	if a.C != b.R {
		panic("tensor: MatMul64 shape mismatch")
	}
	out := NewTensor64(a.R, b.C)
	gemm64NN(out.Data, a.Data, b.Data, a.R, a.C, b.C, a.C, b.C, b.C)
	return out
}

// MatMulBT64 returns a[m,k] * b[n,k]^T.
func MatMulBT64(a, b Tensor64) Tensor64 {
	if a.C != b.C {
		panic("tensor: MatMulBT64 shape mismatch")
	}
	out := NewTensor64(a.R, b.R)
	gemm64NT(out.Data, a.Data, b.Data, a.R, a.C, b.R, a.C, b.C, b.R)
	return out
}

// MatMulBTCat64 returns [x|h] * w^T without materializing the concatenation.
func MatMulBTCat64(x, h, w Tensor64) Tensor64 {
	if x.R != h.R || w.C != x.C+h.C {
		panic("tensor: MatMulBTCat64 shape mismatch")
	}
	out := NewTensor64(x.R, w.R)
	MatMulBTPart64(out, x, w, 0)
	MatMulBTPart64(out, h, w, x.C)
	return out
}

// MatMulBTPart64 accumulates x * w[:, from:from+x.C]^T into dst; see
// MatMulBTPart32.
func MatMulBTPart64(dst, x, w Tensor64, from int) {
	if from < 0 || from+x.C > w.C || dst.R != x.R || dst.C != w.R {
		panic("tensor: MatMulBTPart64 shape mismatch")
	}
	gemm64NT(dst.Data, x.Data, w.Data[from:], x.R, x.C, w.R, x.C, w.C, w.R)
}

// GatherRows64 is GatherRows32 in float64.
func GatherRows64(dst, src Tensor64, start []int32, off int) {
	gatherRows(dst.Data, src.Data, src.C, start, off)
}

// MatMulBTCols64 returns a[:, from:to] * b[:, from:to]^T.
func MatMulBTCols64(a, b Tensor64, from, to int) Tensor64 {
	if from < 0 || to > a.C || to > b.C || from >= to {
		panic("tensor: MatMulBTCols64 column range out of range")
	}
	out := NewTensor64(a.R, b.R)
	gemm64NT(out.Data, a.Data[from:], b.Data[from:], a.R, to-from, b.R, a.C, b.C, b.R)
	return out
}

// AttentionValue64 computes att * v[:, from:to] into columns [from, to) of
// dst (which must be zeroed there).
func AttentionValue64(dst Tensor64, att, v Tensor64, from, to int) {
	if from < 0 || to > v.C || to > dst.C || from >= to || att.C != v.R || dst.R != att.R {
		panic("tensor: AttentionValue64 shape mismatch")
	}
	gemm64NN(dst.Data[from:], att.Data, v.Data[from:], att.R, att.C, to-from, att.C, v.C, dst.C)
}

// Add64 returns a + b.
func Add64(a, b Tensor64) Tensor64 {
	if a.R != b.R || a.C != b.C {
		panic("tensor: Add64 shape mismatch")
	}
	out := NewTensor64(a.R, a.C)
	add(out.Data, a.Data, b.Data)
	return out
}

// AddBiasInPlace64 adds bias[n] into each row of a in place and returns a.
func AddBiasInPlace64(a Tensor64, bias []float64) Tensor64 {
	if len(bias) != a.C {
		panic("tensor: AddBiasInPlace64 bias length mismatch")
	}
	addBias(0, a.R, a.C, a.Data, a.Data, bias)
	return a
}

// SigmoidInPlace64 applies σ elementwise in place and returns a.
func SigmoidInPlace64(a Tensor64) Tensor64 {
	sigmoidEach(a.Data, a.Data)
	return a
}

// TanhInPlace64 applies tanh elementwise in place and returns a.
func TanhInPlace64(a Tensor64) Tensor64 {
	tanhEach(a.Data, a.Data)
	return a
}

// ReLUInPlace64 applies max(·,0) elementwise in place and returns a.
func ReLUInPlace64(a Tensor64) Tensor64 {
	reluEach(a.Data, a.Data)
	return a
}

// LSTMGates64 computes the LSTM gate block in float64.
func LSTMGates64(pre Tensor64, bias []float64, c Tensor64) (h, cNew Tensor64) {
	m, H := c.R, c.C
	if pre.R != m || pre.C != 4*H || len(bias) != 4*H {
		panic("tensor: LSTMGates64 shape mismatch")
	}
	h = NewTensor64(m, H)
	cNew = NewTensor64(m, H)
	lstmGates(0, m, 0, H, pre.Data, bias, c.Data, h.Data, cNew.Data, nil, nil)
	return h, cNew
}

// GRUGates64 computes the GRU update/reset gate block in float64.
func GRUGates64(pre Tensor64, bias []float64, h Tensor64) (z, rh Tensor64) {
	m, H := h.R, h.C
	if pre.R != m || pre.C != 2*H || len(bias) != 2*H {
		panic("tensor: GRUGates64 shape mismatch")
	}
	z = NewTensor64(m, H)
	rh = NewTensor64(m, H)
	gruGates(0, m, H, pre.Data, bias, h.Data, z.Data, nil, rh.Data)
	return z, rh
}

// GateCombine64 computes h' = (n - z⊙n) + z⊙h with n = tanh(nPre + bias).
func GateCombine64(z, nPre Tensor64, bias []float64, h Tensor64) Tensor64 {
	m, H := h.R, h.C
	if z.R != m || z.C != H || nPre.R != m || nPre.C != H || len(bias) != H {
		panic("tensor: GateCombine64 shape mismatch")
	}
	out := NewTensor64(m, H)
	gateCombine(0, m, H, nPre.Data, bias, z.Data, h.Data, nil, out.Data)
	return out
}

// AttentionSoftmax64 applies the scaled row-wise softmax.
func AttentionSoftmax64(a Tensor64, scale float64) Tensor64 {
	out := NewTensor64(a.R, a.C)
	softmaxRows(0, a.R, a.C, out.Data, a.Data, scale)
	return out
}

// LayerNorm64 normalizes each row to zero mean and unit variance, then
// applies the per-column gain and bias (see the file comment for why its
// output loop is its own).
func LayerNorm64(x Tensor64, gamma, beta []float64, eps float64) Tensor64 {
	m, n := x.R, x.C
	if len(gamma) != n || len(beta) != n {
		panic("tensor: LayerNorm64 gain/bias length mismatch")
	}
	out := NewTensor64(m, n)
	for i := 0; i < m; i++ {
		xr, or := x.Row(i), out.Row(i)
		mean, is := meanInvStd(xr, eps)
		for j, v := range xr {
			or[j] = gamma[j]*(v-mean)*is + beta[j]
		}
	}
	return out
}

// StackRows64 gathers row `row` of each timestep tensor into one [T, C]
// matrix.
func StackRows64(xs []Tensor64, row int) Tensor64 {
	out := NewTensor64(len(xs), xs[0].C)
	stackRows(out.Data, xs, row)
	return out
}

// ConcatCols64 returns [a|b].
func ConcatCols64(a, b Tensor64) Tensor64 {
	if a.R != b.R {
		panic("tensor: ConcatCols64 row mismatch")
	}
	out := NewTensor64(a.R, a.C+b.C)
	concatCols(out.Data, a.Data, b.Data, a.R, a.C, b.C)
	return out
}
