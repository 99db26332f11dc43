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

// Slab32 is the inference arena: every buffer a forward pass takes comes
// from one of its grow-only bump pools, recycled wholesale by Reset — the
// float32 activations, the Tensor32 headers, and the u8, i32 and f32
// quantization scratch of the int8 GEMMs. The zero value is ready to use.
//
// Lifetime rule: a slice or Tensor32 obtained from a Slab32 is valid until
// the next Reset, even across an intervening growth (growth allocates a
// fresh backing array; outstanding slices keep aliasing the old one, which
// stays live through them). The quantization pools are the exception:
// MatMulQ8Into resets them at entry, so their scratch dies with each call;
// it touches no activation or header. A Slab32 is not safe for concurrent
// use; the serving path gives each pooled Encoder its own.
type Slab32 struct {
	f pool[float32]  // activations
	h pool[Tensor32] // matrix headers
	// u8, i32 and q are the int8 GEMM's scratch: packed activation codes,
	// accumulators and zero points, and per-row scales (see MatMulQ8Into).
	u8  pool[uint8]
	i32 pool[int32]
	q   pool[float32]
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
	gemmPacked(&s.pack, serial, dst, a, b, m, k, n, lda, ldb, ldc, false, bT, nil)
}

// pool is a grow-only bump allocator of T: it hands out zeroed slices of
// one backing array and recycles them all at reset. A growth allocates a
// fresh array and leaves the old one to the slices already taken from it.
type pool[T any] struct {
	buf         []T
	off         int
	taken, peak int // handed out since the last reset; the most between two resets
	grows       int
}

// Pool growth minimums, in elements: a growth doubles the array, to at
// least what the take needs and at least these.
const (
	leastElems   = 1 << 12
	leastHeaders = 16
)

// take returns a zeroed slice of n elements valid until the next reset,
// growing to at least least elements when the array is full.
//
//perfvec:hotpath
func (p *pool[T]) take(n, least int) []T {
	if p.off+n > len(p.buf) {
		p.grow(max(2*len(p.buf), n, least))
	}
	out := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	p.taken += n
	clear(out)
	return out
}

// grow replaces the backing array with a fresh one of n elements.
//
//perfvec:hotpath
func (p *pool[T]) grow(n int) {
	p.buf = make([]T, n) //perfvec:allow hotalloc -- warm-up growth, or to a peer's high-water mark; steady state reuses the array
	p.off = 0
	p.grows++
}

// reset recycles the pool, folding what it handed out into its peak.
//
//perfvec:hotpath
func (p *pool[T]) reset() {
	p.peak = max(p.peak, p.taken)
	p.off, p.taken = 0, 0
}

// most reports the most the pool has handed out between two resets, the
// current span included.
//
//perfvec:hotpath
func (p *pool[T]) most() int { return max(p.peak, p.taken) }

// reserve grows the array, when it is smaller, to hold n elements from the
// next reset on, rounded up to a power of two: the sizes take's doubling
// reaches.
//
//perfvec:hotpath
func (p *pool[T]) reserve(n int) {
	if len(p.buf) < n {
		p.grow(pow2(n))
	}
}

// Mat returns a zeroed r x c matrix backed by the slab.
//
//perfvec:hotpath
func (s *Slab32) Mat(r, c int) Tensor32 {
	return Tensor32{Data: s.f.take(r*c, leastElems), R: r, C: c}
}

// Mats returns a cleared slice of n Tensor32 headers backed by the slab —
// the per-timestep tensor lists the sequence cells need without allocating.
//
//perfvec:hotpath
func (s *Slab32) Mats(n int) []Tensor32 { return s.h.take(n, leastHeaders) }

// Reset recycles the slab: everything previously taken is dead and the
// backing arrays are reused from the start.
//
//perfvec:hotpath
func (s *Slab32) Reset() {
	s.f.reset()
	s.h.reset()
	s.resetQ()
}

// resetQ recycles the quantization pools only: the scratch of one int8
// GEMM.
//
//perfvec:hotpath
func (s *Slab32) resetQ() {
	s.u8.reset()
	s.i32.reset()
	s.q.reset()
}

// SlabSize is the footprint of a slab's passes: the most each of its pools
// has held between two resets. Peak reads it and Reserve sizes a slab for
// it.
type SlabSize struct{ f, h, u8, i32, q int }

// Max returns the larger of z and o in every pool.
//
//perfvec:hotpath
func (z SlabSize) Max(o SlabSize) SlabSize {
	return SlabSize{max(z.f, o.f), max(z.h, o.h), max(z.u8, o.u8), max(z.i32, o.i32), max(z.q, o.q)}
}

// Peak reports the slab's footprint: the most each pool has held between
// two resets, the current pass included.
//
//perfvec:hotpath
func (s *Slab32) Peak() SlabSize {
	return SlabSize{s.f.most(), s.h.most(), s.u8.most(), s.i32.most(), s.q.most()}
}

// Reserve grows the pools, when they are smaller, so that a pass starting
// at the next Reset can take z without growing: workers that share out
// passes of varying size reserve the largest footprint any of them has
// had, so that none grows in steady state whichever passes it draws. Each
// pool rounds up to a power of two, the sizes its doubling reaches, so a
// reserved worker holds what one that ran the largest pass itself would,
// and a high-water mark that creeps up does not reallocate every worker
// each time. It also makes the packing scratch, which a worker would
// otherwise make at the first small GEMM it runs. A growth here is counted
// like any other; it is as safe at any time as one in Mat.
//
//perfvec:hotpath
func (s *Slab32) Reserve(z SlabSize) {
	s.f.reserve(z.f)
	s.h.reserve(z.h)
	s.u8.reserve(z.u8)
	s.i32.reserve(z.i32)
	s.q.reserve(z.q)
	if s.pack == nil {
		s.pack = make([]float32, packSerial) //perfvec:allow hotalloc -- warm-up, once per slab
	}
}

// pow2 returns the smallest power of two at or above n (n >= 1).
//
//perfvec:hotpath
func pow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// Grows reports how many pool growths the slab has performed — zero
// between Resets once warmed up, which the alloc tests pin.
func (s *Slab32) Grows() int {
	return s.f.grows + s.h.grows + s.u8.grows + s.i32.grows + s.q.grows
}
