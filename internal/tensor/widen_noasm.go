//go:build !amd64 || noasm

package tensor

// Non-amd64 builds, and amd64 under -tags noasm, convert through WidenDiv2's
// Go loop, whose bits the vector kernel reproduces. The stub is never
// reached: WidenDiv2 checks useFMA first.
func vWidenDiv2(dst *float64, src *float32, blocks int, d0, d1 float64) {
	panic("tensor: vector conversion kernel called without hardware support")
}
