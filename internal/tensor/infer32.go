package tensor

// Forward-only float32 ops on Slab32/Tensor32, the serving tier's backend.
// Each op is a thin wrapper: it takes its output from the slab and runs the
// tape op's own code — the identical packed-GEMM entry points (same m/k/n
// and leading dimensions, so every output element is the same ascending-k
// FMA chain) or the same shared row kernel through ParallelKernel, with the
// backward-only scratch (gate activations, tanh(c'), xhat/invStd) passed as
// nil. There are no op records or gradient buffers, and the results are
// bitwise identical to the tape ops; TestInfer32BitwiseMatchesTape pins
// this per op and internal/nn pins it per cell. Shape checks panic with
// constant strings — these functions are //perfvec:hotpath and must not
// build messages.

// MatMul32 returns a[m,k] * b[k,n] on the slab.
//
//perfvec:hotpath
func MatMul32(s *Slab32, a, b Tensor32) Tensor32 {
	if a.C != b.R {
		panic("tensor: MatMul32 shape mismatch")
	}
	out := s.Mat(a.R, b.C)
	gemmPacked(&s.pack, out.Data, a.Data, b.Data, a.R, a.C, b.C, a.C, b.C, b.C, false, false)
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
	gemmPacked(&s.pack, out.Data, a.Data, b.Data, a.R, a.C, b.R, a.C, a.C, b.R, false, true)
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

// MatMulPackedBT32 returns a[m,k] * b^T on the slab for a b packed once by
// PackBT32: bitwise MatMulBT32 on the unpacked matrix. Per KC block it packs
// A into the slab's packing scratch and splits b's column strips through
// ParallelKernel; no worker packs or borrows a B buffer.
//
//perfvec:hotpath
func MatMulPackedBT32(s *Slab32, a Tensor32, b *PackedBT32) Tensor32 {
	return matMulPackedBT32(s, a, b, false)
}

// MatMulPackedBT32Serial is MatMulPackedBT32 on the calling goroutine, for
// callers that keep a product off the worker pool. The bits are the same.
//
//perfvec:hotpath
func MatMulPackedBT32Serial(s *Slab32, a Tensor32, b *PackedBT32) Tensor32 {
	return matMulPackedBT32(s, a, b, true)
}

// matMulPackedBT32 is both forms: the serial one hands ParallelKernel a
// zero work estimate, which runs every strip on the caller.
//
//perfvec:hotpath
func matMulPackedBT32(s *Slab32, a Tensor32, b *PackedBT32, serial bool) Tensor32 {
	if a.C != b.k {
		panic("tensor: MatMulPackedBT32 shape mismatch")
	}
	m, k, n := a.R, a.C, b.n
	out := s.Mat(m, n)
	if m == 0 || n == 0 {
		return out
	}
	mStrips := (m + gemmMR - 1) / gemmMR
	nStrips := (n + gemmNR - 1) / gemmNR
	if need := mStrips * gemmMR * min(b.kc, k); len(s.pack) < need {
		s.pack = make([]float32, max(need, packSerial)) //perfvec:allow hotalloc -- once per slab, or when a taller A first needs more
	}
	for pc := 0; pc < k; pc += b.kc {
		kc := min(b.kc, k-pc)
		aPack := s.pack[:mStrips*gemmMR*kc]
		packAN(aPack, a.Data, m, kc, pc, k)
		work := m * kc * n
		if serial {
			work = 0
		}
		ParallelKernel(nStrips, work, kGemmPackedBT, KernelArgs{
			S: [8][]float32{out.Data, aPack, b.data[nStrips*gemmNR*pc:]},
			I: [6]int{kc, m, n},
		})
	}
	return out
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
	MatMulBTPart32(s, out, x, w, 0)
	MatMulBTPart32(s, out, h, w, x.C)
	return out
}

// MatMulBTPart32 accumulates x * w[:, from:from+x.C]^T into dst: one column
// block of a fused weight, the pass MatMulBTCat32 makes once per operand.
// Run into a zeroed dst it is that op's x-part, so a caller may compute the
// x-part of many rows at once and later add each row's h-part on top: every
// output element is the same ascending-k FMA chain either way. s lends its
// packing scratch only.
//
//perfvec:hotpath
func MatMulBTPart32(s *Slab32, dst, x, w Tensor32, from int) {
	if from < 0 || from+x.C > w.C || dst.R != x.R || dst.C != w.R {
		panic("tensor: MatMulBTPart32 shape mismatch")
	}
	gemmPacked(&s.pack, dst.Data, x.Data, w.Data[from:], x.R, x.C, w.R, x.C, w.C, w.R, false, true)
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
	gemmPacked(&s.pack, out.Data, a.Data[from:], b.Data[from:], a.R, to-from, b.R, a.C, b.C, b.R, false, true)
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
	ParallelKernel(a.R, a.R*a.C, kAddBias,
		KernelArgs{S: [8][]float32{a.Data, a.Data, bias}, I: [6]int{a.C}})
	return a
}

// SigmoidInPlace32 applies σ elementwise in place and returns a.
//
//perfvec:hotpath
func SigmoidInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data)*ewTransc, kSigmoid,
		KernelArgs{S: [8][]float32{a.Data, a.Data}})
	return a
}

// TanhInPlace32 applies tanh elementwise in place and returns a.
//
//perfvec:hotpath
func TanhInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data)*ewTransc, kTanh,
		KernelArgs{S: [8][]float32{a.Data, a.Data}})
	return a
}

// ReLUInPlace32 applies max(·,0) elementwise in place and returns a.
//
//perfvec:hotpath
func ReLUInPlace32(a Tensor32) Tensor32 {
	ParallelKernel(len(a.Data), len(a.Data), kReLU,
		KernelArgs{S: [8][]float32{a.Data, a.Data}})
	return a
}

// LSTMGates32 is LSTMGates without the activation/tanh(c') scratch.
//
//perfvec:hotpath
func LSTMGates32(s *Slab32, pre Tensor32, bias []float32, c Tensor32) (h, cNew Tensor32) {
	m, H := c.R, c.C
	if pre.R != m || pre.C != 4*H || len(bias) != 4*H {
		panic("tensor: LSTMGates32 shape mismatch")
	}
	h = s.Mat(m, H)
	cNew = s.Mat(m, H)
	ParallelKernel(m, m*4*H*ewTransc, kLSTMGates, KernelArgs{
		S: [8][]float32{pre.Data, bias, c.Data, h.Data, cNew.Data},
		I: [6]int{H},
	})
	return h, cNew
}

// GRUGates32 is GRUGates without the reset-activation scratch: it returns
// (z, r⊙h).
//
//perfvec:hotpath
func GRUGates32(s *Slab32, pre Tensor32, bias []float32, h Tensor32) (z, rh Tensor32) {
	m, H := h.R, h.C
	if pre.R != m || pre.C != 2*H || len(bias) != 2*H {
		panic("tensor: GRUGates32 shape mismatch")
	}
	z = s.Mat(m, H)
	rh = s.Mat(m, H)
	ParallelKernel(m, m*2*H*ewTransc, kGRUGates, KernelArgs{
		S: [8][]float32{pre.Data, bias, h.Data, z.Data, nil, rh.Data},
		I: [6]int{H},
	})
	return z, rh
}

// GateCombine32 is GateCombine without the candidate-activation scratch:
// h' = (n - z⊙n) + z⊙h with n = tanh(nPre + bias).
//
//perfvec:hotpath
func GateCombine32(s *Slab32, z, nPre Tensor32, bias []float32, h Tensor32) Tensor32 {
	m, H := h.R, h.C
	if z.R != m || z.C != H || nPre.R != m || nPre.C != H || len(bias) != H {
		panic("tensor: GateCombine32 shape mismatch")
	}
	out := s.Mat(m, H)
	ParallelKernel(m, m*H*ewTransc, kGateCombine, KernelArgs{
		S: [8][]float32{nPre.Data, bias, z.Data, h.Data, nil, out.Data},
		I: [6]int{H},
	})
	return out
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

// LayerNorm32 is LayerNorm without the xhat/invStd scratch.
//
//perfvec:hotpath
func LayerNorm32(s *Slab32, x Tensor32, gamma, beta []float32, eps float32) Tensor32 {
	m, n := x.R, x.C
	if len(gamma) != n || len(beta) != n {
		panic("tensor: LayerNorm32 gain/bias length mismatch")
	}
	out := s.Mat(m, n)
	ParallelKernel(m, m*n*4, kLayerNorm, KernelArgs{
		S: [8][]float32{out.Data, x.Data, gamma, beta},
		I: [6]int{n},
		F: [6]float32{eps},
	})
	return out
}

// StackRows32 gathers row `row` of each timestep tensor into one [T, C]
// matrix — the per-sample sequence view the transformer consumes.
//
//perfvec:hotpath
func StackRows32(s *Slab32, xs []Tensor32, row int) Tensor32 {
	out := s.Mat(len(xs), xs[0].C)
	stackRows(out.Data, xs, row)
	return out
}

// GatherRows32 overwrites dst: its row b becomes the dst.C contiguous
// elements of src that begin at row start[b]+off. The window-batch input
// of the forward-only graph reads its timesteps (dst.C = src.C) and its
// flattened windows (dst.C = window length x src.C) this way.
//
//perfvec:hotpath
func GatherRows32(dst, src Tensor32, start []int32, off int) {
	gatherRows(dst.Data, src.Data, src.C, start, off)
}

// ConcatCols32 returns [a|b] on the slab.
//
//perfvec:hotpath
func ConcatCols32(s *Slab32, a, b Tensor32) Tensor32 {
	if a.R != b.R {
		panic("tensor: ConcatCols32 row mismatch")
	}
	out := s.Mat(a.R, a.C+b.C)
	concatCols(out.Data, a.Data, b.Data, a.R, a.C, b.C)
	return out
}
