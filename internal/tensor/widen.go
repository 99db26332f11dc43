package tensor

// WidenDiv2 writes float64(src[j]) / d0 / d1 to dst[j] for every j < len(src):
// the float64 conversion every sweep value goes through (perfvec's dotNs32
// on a whole row). Full 8-lane blocks run through the AVX2 kernel where the
// GEMM engine's does, the rest (and every other build) through the Go
// expression in the tail loop, whose bits the kernel reproduces, NaN
// payloads included (widen_amd64.s says why). dst must hold len(src)
// elements.
//
//perfvec:hotpath
func WidenDiv2(dst []float64, src []float32, d0, d1 float64) {
	dst = dst[:len(src)]
	j := 0
	if useFMA && len(src) >= 8 {
		b := len(src) / 8
		vWidenDiv2(&dst[0], &src[0], b, d0, d1)
		j = b * 8
	}
	for ; j < len(src); j++ {
		dst[j] = float64(src[j]) / d0 / d1
	}
}
