// Quantized GEMM fixture: the slab idiom internal/tensor's Slab32 and the
// MatMulQ8 pipeline follow — one generic grow-only bump pool type, one
// pool per element type (packed u8 activation codes, i32 accumulators, f32
// quantization scales), the warm-up growth waived once in the generic
// method, everything recycled wholesale by reset — next to a generic pool
// whose growth carries no waiver (flagged inside the generic method) and
// the same quantize/multiply/dequant pass written without the slab, where
// every call allocates its codes, accumulators, and scales from the heap.
package fixture

type pool[T any] struct {
	buf []T
	off int
}

//perfvec:hotpath
func (p *pool[T]) take(n int) []T {
	if p.off+n > len(p.buf) {
		p.buf = make([]T, max(2*len(p.buf), n)) //perfvec:allow hotalloc -- slab warm-up growth; steady state reuses the high-water buffer
		p.off = 0
	}
	out := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	clear(out)
	return out
}

//perfvec:hotpath
func (p *pool[T]) reset() { p.off = 0 }

// leakyPool is the same pool with its growth's waiver forgotten: the make
// in the generic method is flagged like any other.
type leakyPool[T any] struct {
	buf []T
	off int
}

//perfvec:hotpath
func (p *leakyPool[T]) take(n int) []T {
	if p.off+n > len(p.buf) {
		p.buf = make([]T, max(2*len(p.buf), n)) // want `make in hot path take`
		p.off = 0
	}
	out := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	return out
}

type slabQ struct {
	u8  pool[uint8]
	i32 pool[int32]
	f32 pool[float32]
}

func (s *slabQ) reset() {
	s.u8.reset()
	s.i32.reset()
	s.f32.reset()
}

// gemmPooled is the MatMulQ8 shape: activation codes, the i32 accumulator,
// and the per-row scales all drawn from the recycled slab; nothing else
// allocates in steady state.
//
//perfvec:hotpath
func gemmPooled(s *slabQ, x []float32, m, n, k int, dst []float32) {
	s.reset()
	codes := s.u8.take(m * k)
	scales := s.f32.take(m)
	acc := s.i32.take(m * n)
	for i := 0; i < m; i++ {
		var hi float32
		row := x[i*k : (i+1)*k]
		for _, v := range row {
			if v > hi {
				hi = v
			}
		}
		sc := hi / 127
		scales[i] = sc
		for l, v := range row {
			codes[i*k+l] = uint8(v / sc)
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum int32
			for l := 0; l < k; l++ {
				sum += int32(codes[i*k+l])
			}
			acc[i*n+j] = sum
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = float32(acc[i*n+j]) * scales[i]
		}
	}
}

// gemmLeaky is the regressed pipeline: the slab forgotten, every call
// allocating its quantization scratch from the heap.
//
//perfvec:hotpath
func gemmLeaky(x []float32, m, n, k int) []float32 {
	codes := make([]uint8, m*k)  // want `make in hot path gemmLeaky`
	scales := make([]float32, m) // want `make in hot path gemmLeaky`
	acc := make([]int32, m*n)    // want `make in hot path gemmLeaky`
	dst := make([]float32, m*n)  // want `make in hot path gemmLeaky`
	var rows [][]uint8
	for i := 0; i < m; i++ {
		var hi float32
		row := x[i*k : (i+1)*k]
		for _, v := range row {
			if v > hi {
				hi = v
			}
		}
		sc := hi / 127
		scales[i] = sc
		for l, v := range row {
			codes[i*k+l] = uint8(v / sc)
		}
		rows = append(rows, codes[i*k:(i+1)*k]) // want `append in hot path gemmLeaky`
	}
	for i, row := range rows {
		for j := 0; j < n; j++ {
			var sum int32
			for _, c := range row {
				sum += int32(c)
			}
			acc[i*n+j] = sum
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = float32(acc[i*n+j]) * scales[i]
		}
	}
	return dst
}
