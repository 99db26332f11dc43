package tensor

import "math"

// Forward-only float32 inference primitives on Slab32/Tensor32. Each op here
// is the inference twin of a tape op: it calls the identical packed-GEMM
// entry points (same m/k/n and leading dimensions, so packing reads the same
// logical elements and every output element is the same ascending-k FMA
// chain) or replays the identical per-element kernel expressions, but skips
// everything autodiff needed — op records, gradient buffers, and the
// backward-only scratch stores (gate activations, tanh(c'), xhat/invStd).
// The results are therefore bitwise identical to running the tape ops;
// TestInfer32BitwiseMatchesTape pins this per op and
// internal/nn pins it per cell. Shape checks panic with constant strings —
// these functions are //perfvec:hotpath and must not build messages.

// MatMul32 returns a[m,k] * b[k,n] on the slab.
//
//perfvec:hotpath
func MatMul32(s *Slab32, a, b Tensor32) Tensor32 {
	if a.C != b.R {
		panic("tensor: MatMul32 shape mismatch")
	}
	out := s.Mat(a.R, b.C)
	mmNN(out.Data, a.Data, b.Data, a.R, a.C, b.C)
	return out
}

// MatMulBT32 returns a[m,k] * b[n,k]^T on the slab.
//
//perfvec:hotpath
func MatMulBT32(s *Slab32, a, b Tensor32) Tensor32 {
	if a.C != b.C {
		panic("tensor: MatMulBT32 shape mismatch")
	}
	out := s.Mat(a.R, b.R)
	mmNT(out.Data, a.Data, b.Data, a.R, a.C, b.R)
	return out
}

// MatMulBT32Into computes a * b^T into the caller's dst (which must be
// zeroed: the GEMM engine accumulates). The encoder head uses this to write
// final representations straight into the caller's buffer.
//
//perfvec:hotpath
func MatMulBT32Into(dst Tensor32, a, b Tensor32) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic("tensor: MatMulBT32Into shape mismatch")
	}
	mmNT(dst.Data, a.Data, b.Data, a.R, a.C, b.R)
}

// MatMulBTCat32 returns [x|h] * w^T without materializing the concatenation
// — the recurrent cells' hot op, identical to MatMulBTCat.
//
//perfvec:hotpath
func MatMulBTCat32(s *Slab32, x, h, w Tensor32) Tensor32 {
	if x.R != h.R || w.C != x.C+h.C {
		panic("tensor: MatMulBTCat32 shape mismatch")
	}
	out := s.Mat(x.R, w.R)
	gemmNT(out.Data, x.Data, w.Data, x.R, x.C, w.R, x.C, w.C, w.R)
	gemmNT(out.Data, h.Data, w.Data[x.C:], h.R, h.C, w.R, h.C, w.C, w.R)
	return out
}

// MatMulBTCols32 returns a[:, from:to] * b[:, from:to]^T — the per-head
// attention-score form, identical to MatMulBTCols.
//
//perfvec:hotpath
func MatMulBTCols32(s *Slab32, a, b Tensor32, from, to int) Tensor32 {
	if from < 0 || to > a.C || to > b.C || from >= to {
		panic("tensor: MatMulBTCols32 column range out of range")
	}
	out := s.Mat(a.R, b.R)
	gemmNT(out.Data, a.Data[from:], b.Data[from:], a.R, to-from, b.R, a.C, b.C, b.R)
	return out
}

// AttentionValue32 computes att[T,T] * v[:, from:to] directly into columns
// [from, to) of dst, which must be zeroed there. This fuses what the tape
// path expresses as MatMul(att, SliceCols(v, from, to)) then ConcatCols:
// the leading-dimension-aware engine reads v's column block and writes
// dst's column block in place, and since packing reads the identical
// logical B elements and ldc only addresses the stores, the values are
// bitwise identical to the slice-multiply-concat composition.
//
//perfvec:hotpath
func AttentionValue32(dst Tensor32, att, v Tensor32, from, to int) {
	if from < 0 || to > v.C || to > dst.C || from >= to || att.C != v.R || dst.R != att.R {
		panic("tensor: AttentionValue32 shape mismatch")
	}
	gemmNN(dst.Data[from:], att.Data, v.Data[from:], att.R, att.C, to-from, att.C, v.C, dst.C)
}

// Add32 returns a + b on the slab.
//
//perfvec:hotpath
func Add32(s *Slab32, a, b Tensor32) Tensor32 {
	if a.R != b.R || a.C != b.C {
		panic("tensor: Add32 shape mismatch")
	}
	out := s.Mat(a.R, a.C)
	ParallelKernel(len(out.Data), len(out.Data), kAdd,
		KernelArgs{S: [8][]float32{out.Data, a.Data, b.Data}})
	return out
}

// AddBiasInPlace32 adds bias[n] into each row of a in place and returns a.
//
//perfvec:hotpath
func AddBiasInPlace32(a Tensor32, bias []float32) Tensor32 {
	if len(bias) != a.C {
		panic("tensor: AddBiasInPlace32 bias length mismatch")
	}
	ParallelKernel(a.R, a.R*a.C, kAddBiasInPlace,
		KernelArgs{S: [8][]float32{a.Data, bias}, I: [6]int{a.C}})
	return a
}

// SigmoidInPlace32 applies σ elementwise in place and returns a.
//
//perfvec:hotpath
func SigmoidInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data)*ewTransc, kSigmoidInPlace,
		KernelArgs{S: [8][]float32{a.Data}})
	return a
}

// TanhInPlace32 applies tanh elementwise in place and returns a.
//
//perfvec:hotpath
func TanhInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data)*ewTransc, kTanhInPlace,
		KernelArgs{S: [8][]float32{a.Data}})
	return a
}

// ReLUInPlace32 applies max(·,0) elementwise in place and returns a.
//
//perfvec:hotpath
func ReLUInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data), kReLUInPlace,
		KernelArgs{S: [8][]float32{a.Data}})
	return a
}

// LSTMGates32 is the forward-only twin of LSTMGates: same gate math, no
// activation/tanh(c') scratch.
//
//perfvec:hotpath
func LSTMGates32(s *Slab32, pre Tensor32, bias []float32, c Tensor32) (h, cNew Tensor32) {
	m, H := c.R, c.C
	if pre.R != m || pre.C != 4*H || len(bias) != 4*H {
		panic("tensor: LSTMGates32 shape mismatch")
	}
	h = s.Mat(m, H)
	cNew = s.Mat(m, H)
	ParallelKernel(m, m*4*H*ewTransc, kLSTMGates32, KernelArgs{
		S: [8][]float32{pre.Data, bias, c.Data, h.Data, cNew.Data},
		I: [6]int{H},
	})
	return h, cNew
}

// kLSTMGates32: S0=pre, S1=bias, S2=c, S3=h', S4=c'; I0=H. Per-element
// expressions identical to kLSTMGates, minus the acts/tanhC stores.
//
//perfvec:hotpath
func kLSTMGates32(r0, r1 int, ka KernelArgs) {
	pre, bd, c, hNew, cNew := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		zr := pre[r*4*H : (r+1)*4*H]
		cr := c[r*H : (r+1)*H]
		cn := cNew[r*H : (r+1)*H]
		hn := hNew[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			i := sigmoid32(zr[j] + bd[j])
			f := sigmoid32(zr[H+j] + bd[H+j])
			g := tanh32(zr[2*H+j] + bd[2*H+j])
			o := sigmoid32(zr[3*H+j] + bd[3*H+j])
			cv := f*cr[j] + i*g
			cn[j] = cv
			t := tanh32(cv)
			hn[j] = o * t
		}
	}
}

// GRUGates32 is the forward-only twin of GRUGates: returns (z, r⊙h) with no
// reset-activation scratch.
//
//perfvec:hotpath
func GRUGates32(s *Slab32, pre Tensor32, bias []float32, h Tensor32) (z, rh Tensor32) {
	m, H := h.R, h.C
	if pre.R != m || pre.C != 2*H || len(bias) != 2*H {
		panic("tensor: GRUGates32 shape mismatch")
	}
	z = s.Mat(m, H)
	rh = s.Mat(m, H)
	ParallelKernel(m, m*2*H*ewTransc, kGRUGates32, KernelArgs{
		S: [8][]float32{pre.Data, bias, h.Data, z.Data, rh.Data},
		I: [6]int{H},
	})
	return z, rh
}

// kGRUGates32: S0=pre, S1=bias, S2=h, S3=z, S4=r⊙h; I0=H. Identical
// expressions to kGRUGates, minus the rAct store.
//
//perfvec:hotpath
func kGRUGates32(r0, r1 int, ka KernelArgs) {
	pre, bd, h, z, rh := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		pr := pre[r*2*H : (r+1)*2*H]
		hr := h[r*H : (r+1)*H]
		zr := z[r*H : (r+1)*H]
		rhr := rh[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			zv := sigmoid32(pr[j] + bd[j])
			rv := sigmoid32(pr[H+j] + bd[H+j])
			zr[j] = zv
			rhr[j] = rv * hr[j]
		}
	}
}

// GateCombine32 is the forward-only twin of GateCombine:
// h' = (n - z⊙n) + z⊙h with n = tanh(nPre + bias).
//
//perfvec:hotpath
func GateCombine32(s *Slab32, z, nPre Tensor32, bias []float32, h Tensor32) Tensor32 {
	m, H := h.R, h.C
	if z.R != m || z.C != H || nPre.R != m || nPre.C != H || len(bias) != H {
		panic("tensor: GateCombine32 shape mismatch")
	}
	out := s.Mat(m, H)
	ParallelKernel(m, m*H*ewTransc, kGateCombine32, KernelArgs{
		S: [8][]float32{nPre.Data, bias, z.Data, h.Data, out.Data},
		I: [6]int{H},
	})
	return out
}

// kGateCombine32: S0=nPre, S1=bias, S2=z, S3=h, S4=out; I0=H. Identical
// expressions to kGateCombine, minus the nAct store.
//
//perfvec:hotpath
func kGateCombine32(r0, r1 int, ka KernelArgs) {
	nPre, bd, z, h, out := ka.S[0], ka.S[1], ka.S[2], ka.S[3], ka.S[4]
	H := ka.I[0]
	for r := r0; r < r1; r++ {
		pr := nPre[r*H : (r+1)*H]
		zr := z[r*H : (r+1)*H]
		hr := h[r*H : (r+1)*H]
		or := out[r*H : (r+1)*H]
		for j := 0; j < H; j++ {
			nv := tanh32(pr[j] + bd[j])
			zv := zr[j]
			or[j] = (nv - zv*nv) + zv*hr[j]
		}
	}
}

// AttentionSoftmax32 applies the scaled row-wise softmax on the slab. It
// shares kSoftmaxRows with the tape op, so values are bitwise identical.
//
//perfvec:hotpath
func AttentionSoftmax32(s *Slab32, a Tensor32, scale float32) Tensor32 {
	out := s.Mat(a.R, a.C)
	ParallelKernel(a.R, a.R*a.C*ewTransc, kSoftmaxRows,
		KernelArgs{S: [8][]float32{out.Data, a.Data}, I: [6]int{a.C}, F: [6]float32{scale}})
	return out
}

// LayerNorm32 is the forward-only twin of LayerNorm: no xhat/invStd scratch.
//
//perfvec:hotpath
func LayerNorm32(s *Slab32, x Tensor32, gamma, beta []float32, eps float32) Tensor32 {
	m, n := x.R, x.C
	if len(gamma) != n || len(beta) != n {
		panic("tensor: LayerNorm32 gain/bias length mismatch")
	}
	out := s.Mat(m, n)
	ParallelKernel(m, m*n*4, kLayerNorm32, KernelArgs{
		S: [8][]float32{out.Data, x.Data, gamma, beta},
		I: [6]int{n},
		F: [6]float32{eps},
	})
	return out
}

// kLayerNorm32: S0=out, S1=x, S2=gamma, S3=beta; I0=n; F0=eps. Identical
// expressions to kLayerNorm, minus the xhat/invStd stores.
//
//perfvec:hotpath
func kLayerNorm32(r0, r1 int, ka KernelArgs) {
	out, x, gamma, beta := ka.S[0], ka.S[1], ka.S[2], ka.S[3]
	n := ka.I[0]
	eps := ka.F[0]
	for i := r0; i < r1; i++ {
		xr := x[i*n : (i+1)*n]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(n)
		var varc float64
		for _, v := range xr {
			d := float64(v) - mean
			varc += d * d
		}
		varc /= float64(n)
		is := float32(1 / math.Sqrt(varc+float64(eps)))
		for j, v := range xr {
			h := (v - float32(mean)) * is
			out[i*n+j] = gamma[j]*h + beta[j]
		}
	}
}

// StackRows32 gathers row `row` of each timestep tensor into one [T, C]
// matrix — the per-sample sequence view the transformer consumes. A pure
// copy, identical to StackRows.
//
//perfvec:hotpath
func StackRows32(s *Slab32, xs []Tensor32, row int) Tensor32 {
	cols := xs[0].C
	out := s.Mat(len(xs), cols)
	for t, x := range xs {
		copy(out.Data[t*cols:(t+1)*cols], x.Row(row))
	}
	return out
}

// FlattenSeq32 lays the timesteps of xs side by side: out[i] is the
// concatenation of xs[0].Row(i), xs[1].Row(i), ... — identical values to
// the successive-ConcatCols composition the tape path uses.
//
//perfvec:hotpath
func FlattenSeq32(s *Slab32, xs []Tensor32) Tensor32 {
	rows, cols := xs[0].R, xs[0].C
	out := s.Mat(rows, cols*len(xs))
	for i := 0; i < rows; i++ {
		or := out.Row(i)
		for t, x := range xs {
			copy(or[t*cols:(t+1)*cols], x.Row(i))
		}
	}
	return out
}

// ConcatCols32 returns [a|b] on the slab — a pure copy, identical to
// ConcatCols.
//
//perfvec:hotpath
func ConcatCols32(s *Slab32, a, b Tensor32) Tensor32 {
	if a.R != b.R {
		panic("tensor: ConcatCols32 row mismatch")
	}
	out := s.Mat(a.R, a.C+b.C)
	for i := 0; i < a.R; i++ {
		or := out.Row(i)
		copy(or[:a.C], a.Row(i))
		copy(or[a.C:], b.Row(i))
	}
	return out
}
