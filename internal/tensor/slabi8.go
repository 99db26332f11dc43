package tensor

// Quantized-inference arena. The int8 serving path needs three scratch
// families per GEMM — packed u8 activations, i32 accumulators, and the
// per-row f32 quantization parameters — none of which outlive the MatMulQ8
// call that took them. SlabI8 is the Slab32 idiom applied to those element
// types: grow-only bump pools handing out zeroed slices, recycled wholesale
// by Reset. After warm-up a quantized encode pass performs zero heap
// allocations; Grows is the regression counter the alloc tests pin.

// SlabI8 is the quantized-inference scratch arena: one grow-only pool per
// element type the u8 x i8 GEMM needs. The zero value is ready to use.
//
// Lifetime rule: slices obtained from a SlabI8 are valid until the next
// Reset, even across an intervening growth (growth allocates a fresh backing
// array; outstanding slices keep aliasing the old one). MatMulQ8 resets the
// slab it is handed at entry — every quantized GEMM's scratch is dead the
// moment the call returns, so callers must not hold SlabI8 slices across
// calls. A SlabI8 is not safe for concurrent use; the serving path gives
// each pooled Encoder its own.
type SlabI8 struct {
	u8    []uint8
	uoff  int
	i32   []int32
	ioff  int
	f32   []float32
	foff  int
	grows int
	// taken counts the u8, i32 and f32 elements handed out since the last
	// Reset, across growths; peak is the most taken between two Resets.
	taken, peak [3]int
}

// TakeU8 returns a zeroed slice of n bytes valid until the next Reset.
//
//perfvec:hotpath
func (s *SlabI8) TakeU8(n int) []uint8 {
	if s.uoff+n > len(s.u8) {
		sz := 2 * len(s.u8)
		if sz < n {
			sz = n
		}
		if sz < 1<<12 {
			sz = 1 << 12
		}
		s.u8 = make([]uint8, sz) //perfvec:allow hotalloc -- slab warm-up growth; steady state reuses the high-water buffer
		s.uoff = 0
		s.grows++
	}
	out := s.u8[s.uoff : s.uoff+n : s.uoff+n]
	s.uoff += n
	s.taken[0] += n
	clear(out)
	return out
}

// TakeI32 returns a zeroed slice of n int32s valid until the next Reset.
//
//perfvec:hotpath
func (s *SlabI8) TakeI32(n int) []int32 {
	if s.ioff+n > len(s.i32) {
		sz := 2 * len(s.i32)
		if sz < n {
			sz = n
		}
		if sz < 1<<12 {
			sz = 1 << 12
		}
		s.i32 = make([]int32, sz) //perfvec:allow hotalloc -- slab warm-up growth; steady state reuses the high-water buffer
		s.ioff = 0
		s.grows++
	}
	out := s.i32[s.ioff : s.ioff+n : s.ioff+n]
	s.ioff += n
	s.taken[1] += n
	clear(out)
	return out
}

// TakeF32 returns a zeroed slice of n float32s valid until the next Reset —
// the per-row activation scales a quantized GEMM's epilogue reads.
//
//perfvec:hotpath
func (s *SlabI8) TakeF32(n int) []float32 {
	if s.foff+n > len(s.f32) {
		sz := 2 * len(s.f32)
		if sz < n {
			sz = n
		}
		if sz < 1<<12 {
			sz = 1 << 12
		}
		s.f32 = make([]float32, sz) //perfvec:allow hotalloc -- slab warm-up growth; steady state reuses the high-water buffer
		s.foff = 0
		s.grows++
	}
	out := s.f32[s.foff : s.foff+n : s.foff+n]
	s.foff += n
	s.taken[2] += n
	clear(out)
	return out
}

// Reset recycles the slab: everything previously taken is dead and the
// backing arrays are reused from the start.
func (s *SlabI8) Reset() {
	s.uoff, s.ioff, s.foff = 0, 0, 0
	for i, n := range s.taken {
		s.peak[i] = max(s.peak[i], n)
	}
	s.taken = [3]int{}
}

// Peak reports the most u8, i32 and f32 elements taken between two Resets.
//
//perfvec:hotpath
func (s *SlabI8) Peak() (u8, i32, f32 int) {
	return max(s.peak[0], s.taken[0]), max(s.peak[1], s.taken[1]), max(s.peak[2], s.taken[2])
}

// Reserve grows the pools, when they are smaller, so that a call starting
// at the next Reset can take u8, i32 and f32 elements without growing,
// rounded up to a power of two; see Slab32.Reserve.
//
//perfvec:hotpath
func (s *SlabI8) Reserve(u8, i32, f32 int) {
	if len(s.u8) < u8 {
		s.u8, s.uoff = make([]uint8, pow2(u8)), 0 //perfvec:allow hotalloc -- warm-up growth to a peer's high-water mark; steady state reuses it
		s.grows++
	}
	if len(s.i32) < i32 {
		s.i32, s.ioff = make([]int32, pow2(i32)), 0 //perfvec:allow hotalloc -- warm-up growth to a peer's high-water mark; steady state reuses it
		s.grows++
	}
	if len(s.f32) < f32 {
		s.f32, s.foff = make([]float32, pow2(f32)), 0 //perfvec:allow hotalloc -- warm-up growth to a peer's high-water mark; steady state reuses it
		s.grows++
	}
}

// Grows reports how many backing-array growths the slab has performed —
// zero between Resets once warmed up, which the alloc tests pin.
func (s *SlabI8) Grows() int { return s.grows }
