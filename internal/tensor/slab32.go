package tensor

import "math/bits"

// Forward-only float32 inference arena. The training path allocates tensors
// through Tape/Arena because autodiff needs per-op records and gradient
// buffers; inference needs neither, so the serving fast path runs on Slab32:
// a grow-only bump allocator handing out zeroed matrices whose lifetime is
// one encode pass (everything taken between two Resets dies together at the
// next Reset). After warm-up a pass performs zero heap allocations.

// Tensor32 is a forward-only float32 matrix: a view into a Slab32 (or any
// caller-owned buffer) with no gradient, no tape, and value semantics. Data
// is row-major with R rows of C contiguous columns.
type Tensor32 struct {
	Data []float32
	R, C int
}

// Rows returns the number of rows.
func (t Tensor32) Rows() int { return t.R }

// Cols returns the number of columns.
func (t Tensor32) Cols() int { return t.C }

// Row returns row i as a slice aliasing the tensor's storage.
//
//perfvec:hotpath
func (t Tensor32) Row(i int) []float32 { return t.Data[i*t.C : (i+1)*t.C] }

// At returns the element at row i, column j.
func (t Tensor32) At(i, j int) float32 { return t.Data[i*t.C+j] }

// Slab32 is the inference arena: matrices and matrix-slice headers are
// bump-allocated from grow-only backing arrays and recycled wholesale by
// Reset. The zero value is ready to use.
//
// Lifetime rule: a slice or Tensor32 obtained from a Slab32 is valid until
// the next Reset, even across an intervening growth (growth allocates a
// fresh backing array; outstanding slices keep aliasing the old one, which
// stays live through them). A Slab32 is not safe for concurrent use; the
// serving path gives each pooled Encoder its own.
type Slab32 struct {
	buf   []float32
	off   int
	mats  []Tensor32
	moff  int
	grows int
	// taken and mtaken count the float32s and headers handed out since
	// the last Reset, across growths.
	taken, mtaken int
	// pack is the GEMM engine's packing scratch for the products of the
	// ops that run on the slab (see gemm): grow-only, made at the first,
	// reused by every later one, never part of a pass.
	pack []float32
}

// gemm runs the packed engine for an op on the slab, on the slab's packing
// scratch. A product whose columns fit one NC panel and whose packed
// blocks fit packSerial runs serially, on the calling goroutine: the
// encoder's row ranges are already spread across the cores, one per claim
// loop, so a range's GEMMs find few idle workers. A larger one, such as a
// sweep space's forward, splits across the worker pool.
//
//perfvec:hotpath
func (s *Slab32) gemm(dst, a, b []float32, m, k, n, lda, ldb, ldc int, bT bool) {
	mPad := (m + gemmMR - 1) / gemmMR * gemmMR
	nPad := (n + gemmNR - 1) / gemmNR * gemmNR
	serial := n <= gemmNC && (mPad+nPad)*min(gemmKC, k) <= packSerial
	gemmPacked(&s.pack, serial, dst, a, b, m, k, n, lda, ldb, ldc, false, bT)
}

// Take returns a zeroed slice of n float32s valid until the next Reset.
//
//perfvec:hotpath
func (s *Slab32) Take(n int) []float32 {
	if s.off+n > len(s.buf) {
		sz := 2 * len(s.buf)
		if sz < n {
			sz = n
		}
		if sz < 1<<12 {
			sz = 1 << 12
		}
		s.buf = make([]float32, sz) //perfvec:allow hotalloc -- slab warm-up growth; steady state reuses the high-water buffer
		s.off = 0
		s.grows++
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	s.taken += n
	clear(out)
	return out
}

// Mat returns a zeroed r x c matrix backed by the slab.
//
//perfvec:hotpath
func (s *Slab32) Mat(r, c int) Tensor32 {
	return Tensor32{Data: s.Take(r * c), R: r, C: c}
}

// Mats returns a cleared slice of n Tensor32 headers backed by the slab —
// the per-timestep tensor lists the sequence cells need without allocating.
//
//perfvec:hotpath
func (s *Slab32) Mats(n int) []Tensor32 {
	if s.moff+n > len(s.mats) {
		sz := 2 * len(s.mats)
		if sz < n {
			sz = n
		}
		if sz < 16 {
			sz = 16
		}
		s.mats = make([]Tensor32, sz) //perfvec:allow hotalloc -- slab warm-up growth; steady state reuses the high-water buffer
		s.moff = 0
		s.grows++
	}
	out := s.mats[s.moff : s.moff+n : s.moff+n]
	s.moff += n
	s.mtaken += n
	for i := range out {
		out[i] = Tensor32{}
	}
	return out
}

// Reset recycles the slab: everything previously taken is dead and the
// backing arrays are reused from the start.
func (s *Slab32) Reset() { s.off, s.moff, s.taken, s.mtaken = 0, 0, 0, 0 }

// Taken reports the float32s and matrix headers handed out since the last
// Reset.
//
//perfvec:hotpath
func (s *Slab32) Taken() (floats, mats int) { return s.taken, s.mtaken }

// Reserve grows the backing arrays, when they are smaller, so that a pass
// starting at the next Reset can take floats float32s and mats headers
// without growing: workers that share out passes of varying size reserve
// the largest any of them has taken, so that none grows in steady state
// whichever passes it draws. It rounds up to a power of two, the sizes
// Take's doubling reaches, so a reserved worker holds what one that ran the
// largest pass itself would, and a high-water mark that creeps up does not
// reallocate every worker each time. It also makes the packing scratch,
// which a worker would otherwise make at the first small GEMM it runs. A
// growth here is counted like any other; it is as safe at any time as one
// in Take.
//
//perfvec:hotpath
func (s *Slab32) Reserve(floats, mats int) {
	if len(s.buf) < floats {
		s.buf = make([]float32, pow2(floats)) //perfvec:allow hotalloc -- warm-up growth to a peer's high-water mark; steady state reuses it
		s.off = 0
		s.grows++
	}
	if len(s.mats) < mats {
		s.mats = make([]Tensor32, pow2(mats)) //perfvec:allow hotalloc -- warm-up growth to a peer's high-water mark; steady state reuses it
		s.moff = 0
		s.grows++
	}
	if s.pack == nil {
		s.pack = make([]float32, packSerial) //perfvec:allow hotalloc -- warm-up, once per slab
		s.grows++
	}
}

// pow2 returns the smallest power of two at or above n (n >= 1).
//
//perfvec:hotpath
func pow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// Grows reports how many backing-array growths the slab has performed —
// zero between Resets once warmed up, which the alloc tests pin.
func (s *Slab32) Grows() int { return s.grows }
