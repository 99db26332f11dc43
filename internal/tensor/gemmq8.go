package tensor

import "runtime"

// Quantized u8 x i8 GEMM engine — the int8 rung of the inference ladder
// (f64 oracle -> f32 fast path -> this). It reuses the PR 5 packed engine's
// shape wholesale: the same MR x NR register tile, the same KC reduction
// blocking (KC is a multiple of gemmQuad by construction), the same
// column-strip/row-strip parallel partition with identical chunk boundaries,
// and the same boundary-tile scratch discipline. What changes is the operand
// layout — quads of four consecutive k-values per column, matching one
// VPMADDUBSW/VPMADDWD step — and that B (the weights) arrives pre-packed at
// model load (QuantizeWeightsBT), so the per-call work is quantize-and-pack
// A, the integer GEMM, and the f32 dequantization epilogue.
//
// Kernel semantics (pinned, both paths): for every output element and every
// k-quad, the accumulator receives
//
//	sat16(a0*w0 + a1*w1) + sat16(a2*w2 + a3*w3)
//
// where sat16 saturates to int16 — exactly what VPMADDUBSW (unsigned x
// signed bytes, pairwise sum, i16 saturation) followed by VPMADDWD against
// ones computes. The portable kernel replicates the saturation bit-for-bit
// (TestGEMMQ8AsmMatchesGeneric), so quantized results are identical across
// asm and noasm builds: integer arithmetic leaves no rounding freedom, and
// the AVX2 quantize-pack and dequantization epilogues repeat the portable
// Go loops' float operations in order, unfused
// (TestQuantPackAAsmMatchesGeneric, TestDequantQ8AsmMatchesGeneric). On
// engine-produced codes the saturation never engages: activations quantize
// to 7-bit codes (quant.go), so a pair sum is bounded by 127*127*2 = 32258
// < 32767 and the accumulator holds the exact i32 dot product of the codes.
// The sat16 semantics are still pinned — they are what the hardware
// instruction defines, and TestGEMMQ8MicroSaturation feeds both kernels
// synthetic out-of-range bytes to prove they clip identically.
//
// Unlike the f32 engine there are no MC/NC cache loops and no pack pools:
// packed A is u8 (a quarter the f32 footprint — a KC block of a 128-row
// encode range is at most 64 KiB, L2-resident) and B needs no per-call packing at all,
// so the worker simply streams row tiles against each L1-resident B strip.
// All per-call scratch comes from the caller's SlabI8, which MatMulQ8Into
// resets at entry: a quantized GEMM owns the slab for exactly one call.

// MatMulQ8 computes dequant(x * w^T) + bias on the f32 slab: the quantized
// twin of MatMulBT32 (+ AddBiasInPlace32 when bias is non-nil, fused into
// the dequantization epilogue). q supplies the quantization scratch.
//
//perfvec:hotpath
func MatMulQ8(s *Slab32, q *SlabI8, x Tensor32, w *QuantizedWeights, bias []float32) Tensor32 {
	out := s.Mat(x.R, w.N)
	MatMulQ8Into(q, out, x, w, bias, false)
	return out
}

// MatMulQ8Into runs one quantized GEMM into dst: quantize the rows of x,
// multiply against the pre-packed weights in integer arithmetic, and
// dequantize into dst — setting it (add=false) or accumulating into it
// (add=true; the recurrent cells sum the separately quantized x- and
// h-projections this way, mirroring MatMulBTCat32's two-GEMM fusion).
// bias, when non-nil, is added in the epilogue. dst must be [x.R, w.N];
// x.C must equal w.K. q is reset at entry — nothing taken from it survives
// this call.
//
//perfvec:hotpath
func MatMulQ8Into(q *SlabI8, dst Tensor32, x Tensor32, w *QuantizedWeights, bias []float32, add bool) {
	if x.C != w.K || dst.R != x.R || dst.C != w.N {
		panic("tensor: MatMulQ8Into shape mismatch")
	}
	if bias != nil && len(bias) != w.N {
		panic("tensor: MatMulQ8Into bias length mismatch")
	}
	m, n, k, kQ := x.R, w.N, w.K, w.KQ
	if m == 0 || n == 0 {
		return
	}
	q.Reset()
	mStrips := (m + gemmMR - 1) / gemmMR
	nStrips := (n + gemmNR - 1) / gemmNR
	ap := q.TakeU8(mStrips * kQ * gemmMR * gemmQuad)
	aScale := q.TakeF32(m)
	aZp := q.TakeI32(m)
	ParallelKernel(m, m*k*4, kQuantPackA, KernelArgs{
		S: [8][]float32{x.Data, aScale},
		U: [2][]uint8{ap},
		Z: [3][]int32{aZp},
		I: [6]int{k, kQ},
	})
	acc := q.TakeI32(m * n)
	flags := 0
	units := nStrips
	if mStrips > nStrips && nStrips < runtime.GOMAXPROCS(0) {
		units = mStrips
		flags |= gemmFlagRows
	}
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		kcq := (kc + gemmQuad - 1) / gemmQuad
		pc4 := pc / gemmQuad
		ParallelKernel(units, m*kc*n, kGemmQ8, KernelArgs{
			U: [2][]uint8{ap[pc4*gemmMR*gemmQuad:]},
			P: [2][]int8{w.Pack[pc4*gemmNR*gemmQuad:]},
			Z: [3][]int32{acc},
			I: [6]int{kcq, m, n, kQ, flags},
		})
	}
	dqFlags := 0
	if add {
		dqFlags |= dequantAdd
	}
	ParallelKernel(m, m*n*2, kDequantQ8, KernelArgs{
		S: [8][]float32{dst.Data, w.Scale, aScale, bias},
		Z: [3][]int32{acc, w.ColSum, aZp},
		I: [6]int{n, dqFlags},
	})
}

// kDequantQ8 flag bits (I1).
const dequantAdd = 1 << 0 // accumulate into dst instead of setting it

// kQuantPackA quantizes activation rows [r0, r1) and writes them straight
// into the engine's MR-row-strip quad layout: row i lands in strip i/MR at
// ap[((i/MR)*KQ + l/4)*MR*4 + (i%MR)*4 + l%4]. Rows past m and k-positions
// past k stay zero (the slab hands out zeroed memory), which the engine's
// padding contract requires. S0=x (row-major, stride k), S1=aScale; U0=ap;
// Z0=aZp; I0=k, I1=KQ. Per-row independent, so chunk boundaries cannot
// affect values. Under useQ8 the range scan and the code packing of each
// row's leading multiple of 8 values run through minMaxF32x8 and
// quantPackU8x8; the scale and zero-point (math.Round) and the k%8 tail
// stay in Go.
//
//perfvec:hotpath
func kQuantPackA(r0, r1 int, ka KernelArgs) {
	x, aScale := ka.S[0], ka.S[1]
	ap := ka.U[0]
	aZp := ka.Z[0]
	k, kQ := ka.I[0], ka.I[1]
	for i := r0; i < r1; i++ {
		row := x[i*k : (i+1)*k]
		strip := ap[(i/gemmMR)*kQ*gemmMR*gemmQuad+(i%gemmMR)*gemmQuad:]
		// row[:head] runs through the AVX2 kernels, the rest through Go.
		head := 0
		var lo, hi float32
		if useQ8 && k >= 8 {
			head = k &^ 7
			lo, hi = minMaxF32x8(&row[0], head/8)
		}
		scale, zp := quantParamsU8(rowRangeU8(row[head:], lo, hi))
		aScale[i] = scale
		aZp[i] = zp
		inv := 1 / scale
		zpf := float32(zp) + 0.5
		if head > 0 {
			quantPackU8x8(&strip[0], &row[0], head/8, inv, zpf)
		}
		for l := head; l < k; l++ {
			strip[(l>>2)*gemmMR*gemmQuad+(l&3)] = quantizeU8(row[l], inv, zpf)
		}
	}
}

// kGemmQ8 is the per-worker body of one KC block: U0=packed A (pre-offset to
// the block's quad), P0=packed B (pre-offset likewise), Z0=the i32
// accumulator matrix; I0=kcq (quads in this block), I1=m, I2=n, I3=KQ (quad
// stride between strips), I4=gemmFlag bits. Partition units are NR-column
// strips, or MR-row strips for narrow-tall outputs — the same axis choice,
// with the same boundaries, as the f32 engine.
//
//perfvec:hotpath
func kGemmQ8(s0, s1 int, ka KernelArgs) {
	a, b, acc := ka.U[0], ka.P[0], ka.Z[0]
	kcq, m, n, kQ := ka.I[0], ka.I[1], ka.I[2], ka.I[3]
	if ka.I[4]&gemmFlagRows != 0 {
		gemmQ8Worker(acc, a, b, kcq, kQ, n, s0*gemmMR, min(s1*gemmMR, m), 0, n)
		return
	}
	gemmQ8Worker(acc, a, b, kcq, kQ, n, 0, m, s0*gemmNR, min(s1*gemmNR, n))
}

// gemmQ8Worker runs one worker's share of a KC block: accumulator rows
// [i0, i1), columns [j0, j1), with i0 MR-aligned and j0 NR-aligned. Each
// B strip (at most KC/4 quads of NR*4 bytes — 8 KiB) stays L1-resident
// while the packed A rows stream past it; boundary tiles run through an
// NR-strided i32 scratch tile, which is exact (integer load/store).
//
//perfvec:hotpath
func gemmQ8Worker(acc []int32, a []uint8, b []int8, kcq, kQ, n int, i0, i1, j0, j1 int) {
	var tile [gemmMR * gemmNR]int32
	for jt := j0; jt < j1; jt += gemmNR {
		bs := b[(jt/gemmNR)*kQ*gemmNR*gemmQuad:]
		nr := min(gemmNR, n-jt)
		for i := i0; i < i1; i += gemmMR {
			mr := min(gemmMR, i1-i)
			as := a[(i/gemmMR)*kQ*gemmMR*gemmQuad:]
			if mr == gemmMR && nr == gemmNR {
				gemmQ8Micro(acc[i*n+jt:], as, bs, kcq, n)
				continue
			}
			clear(tile[:])
			for r := 0; r < mr; r++ {
				copy(tile[r*gemmNR:r*gemmNR+nr], acc[(i+r)*n+jt:(i+r)*n+jt+nr])
			}
			gemmQ8Micro(tile[:], as, bs, kcq, gemmNR)
			for r := 0; r < mr; r++ {
				copy(acc[(i+r)*n+jt:(i+r)*n+jt+nr], tile[r*gemmNR:r*gemmNR+nr])
			}
		}
	}
}

// gemmQ8Micro dispatches one MR x NR integer tile to the VPMADDUBSW
// assembly kernel when the CPU supports it, and to the bitwise-identical
// portable kernel otherwise.
//
//perfvec:hotpath
func gemmQ8Micro(c []int32, a []uint8, b []int8, kq, ldc int) {
	if useQ8 {
		gemmQ8Micro6x16(&c[0], &a[0], &b[0], kq, ldc)
		return
	}
	gemmQ8MicroGeneric(c, a, b, kq, ldc)
}

// gemmQ8MicroGeneric is the portable twin of gemmQ8Micro6x16 in
// gemmq8_amd64.s: the identical accumulator tile, the identical per-quad
// expression — two unsigned-times-signed byte products summed with int16
// saturation, then widened and added — in the identical order. Integer
// arithmetic is exact, so the two kernels agree bit-for-bit by construction;
// TestGEMMQ8AsmMatchesGeneric pins it anyway.
//
//perfvec:hotpath
func gemmQ8MicroGeneric(c []int32, a []uint8, b []int8, kq, ldc int) {
	var acc [gemmMR * gemmNR]int32
	for r := 0; r < gemmMR; r++ {
		copy(acc[r*gemmNR:(r+1)*gemmNR], c[r*ldc:r*ldc+gemmNR])
	}
	for q := 0; q < kq; q++ {
		av := a[q*gemmMR*gemmQuad : (q+1)*gemmMR*gemmQuad]
		bv := b[q*gemmNR*gemmQuad : (q+1)*gemmNR*gemmQuad]
		for r := 0; r < gemmMR; r++ {
			a0 := int32(av[r*gemmQuad])
			a1 := int32(av[r*gemmQuad+1])
			a2 := int32(av[r*gemmQuad+2])
			a3 := int32(av[r*gemmQuad+3])
			row := acc[r*gemmNR : (r+1)*gemmNR]
			for v := range row {
				w := bv[v*gemmQuad : v*gemmQuad+gemmQuad]
				row[v] += sat16(a0*int32(w[0])+a1*int32(w[1])) +
					sat16(a2*int32(w[2])+a3*int32(w[3]))
			}
		}
	}
	for r := 0; r < gemmMR; r++ {
		copy(c[r*ldc:r*ldc+gemmNR], acc[r*gemmNR:(r+1)*gemmNR])
	}
}

// sat16 clamps to int16 range — one VPMADDUBSW lane's saturation.
//
//perfvec:hotpath
func sat16(v int32) int32 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return v
}

// kDequantQ8 converts accumulator rows [r0, r1) to float32: remove each
// row's zero-point contribution through the per-channel column sums, apply
// the combined activation-times-weight scale, and add the optional bias —
// all in one pass, the epilogue fusion the f32 path expresses as GEMM +
// AddBiasInPlace32. S0=dst, S1=wScale, S2=aScale, S3=bias (nil for none);
// Z0=acc, Z1=colSum, Z2=aZp; I0=n, I1=dequant flag bits. Under useQ8 the
// rows run through dequantQ8Rows, which repeats the Go loops' operations in
// order on 8 lanes, so asm and noasm dequantize bit-identically.
//
//perfvec:hotpath
func kDequantQ8(r0, r1 int, ka KernelArgs) {
	dst, wScale, aScale, bias := ka.S[0], ka.S[1], ka.S[2], ka.S[3]
	acc, colSum, aZp := ka.Z[0], ka.Z[1], ka.Z[2]
	n := ka.I[0]
	if useQ8 {
		var bp *float32
		if bias != nil {
			bp = &bias[0]
		}
		dequantQ8Rows(&dst[r0*n], &acc[r0*n], &colSum[0], &wScale[0], &aScale[r0], &aZp[r0], bp, r1-r0, n, ka.I[1])
		return
	}
	doAdd := ka.I[1]&dequantAdd != 0
	cs := colSum[:n]
	ws := wScale[:n]
	for i := r0; i < r1; i++ {
		ai := aScale[i]
		zp := aZp[i]
		ar := acc[i*n : i*n+n]
		dr := dst[i*n : i*n+n]
		// The mode branches are hoisted out of the element loop and the
		// slices pinned to length n so the inner loops run bounds-check-free;
		// every variant keeps the identical float expression order.
		switch {
		case bias != nil && doAdd:
			bs := bias[:n]
			for j, s := range ar {
				dr[j] += float32(s-zp*cs[j])*(ai*ws[j]) + bs[j]
			}
		case bias != nil:
			bs := bias[:n]
			for j, s := range ar {
				dr[j] = float32(s-zp*cs[j])*(ai*ws[j]) + bs[j]
			}
		case doAdd:
			for j, s := range ar {
				dr[j] += float32(s-zp*cs[j]) * (ai * ws[j])
			}
		default:
			for j, s := range ar {
				dr[j] = float32(s-zp*cs[j]) * (ai * ws[j])
			}
		}
	}
}
