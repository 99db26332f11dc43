// Clean fixture: allocation-free hot paths, cold functions, and the
// constructs the analyzer deliberately does not flag — no findings expected.
package fixture

// Not annotated: allocations outside hot paths are fine.
func coldSetup(n int) []float32 {
	return make([]float32, n)
}

//perfvec:hotpath
func hotClean(dst, src []float32, scale float32) float32 {
	acc := float32(0)
	for i := range src {
		dst[i] = src[i] * scale
		acc += dst[i]
	}
	v := vec{x: acc} // value composite literal: stays on the stack
	return v.x
}

//perfvec:hotpath
func hotWaived(n int) []float32 {
	out := make([]float32, n) //perfvec:allow hotalloc -- fixture: per-call setup outside the steady-state loop
	return out
}

//perfvec:hotpath
func hotPointerBoxing(p *vec) {
	consume(p) // pointer-shaped: stored directly in the interface word
}

//perfvec:hotpath
func hotPureClosure() int {
	f := func(a, b int) int { return a + b } // captures nothing: no capture block
	return f(1, 2)
}

//perfvec:hotpath
func hotGeneric[F float32 | float64](dst []F, x float64) {
	dst[0] = F(x) // a type-parameter value is the instantiated type, not an interface
	dst[1] = half(dst[0])
}

func half[F float32 | float64](x F) F { return x / 2 }
