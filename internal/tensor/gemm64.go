package tensor

import "math"

// Float64 oracle GEMM. This is the reference engine the epsilon drift
// harnesses and the tier error ledger compare the float32 and int8 serving
// tiers against — correctness and determinism matter here, raw speed
// does not (no packing, no assembly; math.FMA compiles to a scalar VFMADD
// on amd64 and is exact everywhere else).
//
// Determinism: every output element is one chain of fused multiply-adds in
// ascending k order, accumulated directly into dst. The KC reduction
// blocking below (reusing the runtime-tuned gemmKC) reorders only
// independent work, so results are invariant to blocking and to how the
// caller splits rows — the same contract the float32 packed engine keeps.
// Both loops run serially: the oracle's parallelism is Encoder.encode's
// row ranges, each of which runs its own forward.

// gemm64NN computes dst[i*ldc+j] += sum_l a[i*lda+l] * b[l*ldb+j].
func gemm64NN(dst, a, b []float64, m, k, n, lda, ldb, ldc int) {
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		for i := 0; i < m; i++ {
			arow := a[i*lda+pc : i*lda+pc+kc]
			drow := dst[i*ldc : i*ldc+n]
			for l, av := range arow {
				brow := b[(pc+l)*ldb : (pc+l)*ldb+n]
				for j, bv := range brow {
					drow[j] = math.FMA(av, bv, drow[j])
				}
			}
		}
	}
}

// gemm64NT computes dst[i*ldc+j] += sum_l a[i*lda+l] * b[j*ldb+l].
func gemm64NT(dst, a, b []float64, m, k, n, lda, ldb, ldc int) {
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		for i := 0; i < m; i++ {
			arow := a[i*lda+pc : i*lda+pc+kc]
			drow := dst[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb+pc : j*ldb+pc+kc]
				acc := drow[j]
				for l, av := range arow {
					acc = math.FMA(av, brow[l], acc)
				}
				drow[j] = acc
			}
		}
	}
}
