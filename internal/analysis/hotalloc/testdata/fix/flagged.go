// Flagged fixture: one of every heap-allocating construct class inside an
// annotated hot path.
package fixture

type vec struct{ x, y float32 }

func consume(v any) { _ = v }

//perfvec:hotpath
func hotAllocs(n int, dst []float32) {
	buf := make([]float32, n) // want `make in hot path hotAllocs`
	_ = buf
	p := new(vec) // want `new in hot path hotAllocs`
	_ = p
	dst = append(dst, 1) // want `append in hot path hotAllocs`
	_ = dst
	v := &vec{1, 2} // want `address-taken composite literal`
	_ = v
	s := []int{1, 2, 3} // want `slice literal in hot path`
	_ = s
	m := map[string]int{"a": 1} // want `map literal in hot path`
	_ = m
}

//perfvec:hotpath
func hotClosure(n int) {
	total := 0
	fn := func(i int) { total += i } // want `closure in hot path hotClosure captures total`
	fn(n)
	go fn(n) // want `go statement in hot path`
}

//perfvec:hotpath
func hotBoxing(x int) {
	consume(x) // want `int value boxed into`
}

//perfvec:hotpath
func hotGenericBoxing[F float32 | float64](x F) {
	consume(x) // want `F value boxed into`
}
