//go:build amd64 && !noasm

package tensor

// vWidenDiv2 writes float64(src[i]) / d0 / d1 to dst[i] for blocks*8
// elements (widen_amd64.s).
//
//go:noescape
func vWidenDiv2(dst *float64, src *float32, blocks int, d0, d1 float64)
