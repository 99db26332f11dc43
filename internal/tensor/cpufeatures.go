package tensor

// Features reports which optional SIMD kernels the detected CPU (and build)
// can run. perfvec-bench records this alongside the cache geometry in its
// BENCH_*.json reports so kernel-sensitive numbers — the f32 fast path and
// especially the quantized path — are interpretable across machines: a
// MatMulQ8 result measured on the portable kernels is not comparable to one
// measured on VPMADDUBSW hardware.
type Features struct {
	// AVX2FMA: the f32 micro-kernel (VFMADD231PS in gemm_amd64.s) is active.
	AVX2FMA bool `json:"avx2_fma"`
	// DotQ8: the int8 engine's AVX2 kernels in gemmq8_amd64.s are active —
	// the VPMADDUBSW/VPMADDWD micro-kernel and the quantize-pack and
	// dequantize epilogues around it. On the false path the engine runs the
	// portable Go twins with identical (bit-for-bit) results at scalar
	// speed.
	DotQ8 bool `json:"dot_q8"`
}

// CPUFeatures reports the active SIMD kernel set. Both fields are false on
// non-amd64 platforms and under the noasm build tag.
func CPUFeatures() Features {
	return Features{AVX2FMA: useFMA, DotQ8: useQ8}
}
