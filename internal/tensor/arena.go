package tensor

// Arena is a free-list pool of step-lifetime tensors, keyed by element count.
//
// Training builds the same computation graph every minibatch, so the tensors
// an op allocates on step N are shape-for-shape the tensors it will allocate
// on step N+1. An arena-backed tape (NewTapeArena) exploits that: every op
// output, gradient buffer, and op-internal scratch tensor is drawn from the
// arena, and Tape.Reset returns all of them to the free lists. After one
// warm-up step the pool contains every buffer the step needs and the training
// hot path runs steady-state tensor-allocation-free (see Stats, and the
// regression test in internal/perfvec).
//
// Lifetime invariant: a pooled tensor is valid only until its tape's next
// Reset. Anything that must survive the step — parameters, running statistics,
// results handed to callers — must be allocated with New/copied out before
// Reset runs. Ops never hand arena tensors to code outside the step: the
// trainer reads the scalar loss value (not the tensor) before resetting.
// Forward-only passes do not use arenas: they run on the inference graph's
// Slab32 (see slab32.go), which keeps the same invariant — each pass's
// results are consumed before the slab's next Reset.
//
// An Arena is not safe for concurrent use; like the Tape that owns it, it is
// confined to one gradient worker's goroutine.
type Arena struct {
	free map[int][]*Tensor // recycled tensors by element count
	live []*Tensor         // handed out since the last Reset
	// Tensor-slice slabs (Tape.Tensors) pool the per-timestep []*Tensor
	// lists of the sequence models, keyed by length and recycled on Reset
	// exactly like tensors.
	slabFree map[int][][]*Tensor
	slabLive [][]*Tensor
	// hits counts pool reuses, misses fresh allocations (tensors and slabs
	// alike); steady-state training must stop accumulating misses after the
	// first step.
	hits, misses int
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][]*Tensor), slabFree: make(map[int][][]*Tensor)}
}

// Get returns a zeroed tensor of the given shape, reusing a pooled tensor of
// the same element count when one is free. The tensor's gradient starts nil;
// a recycled gradient buffer is re-attached (zeroed) on the first ensureGrad.
func (a *Arena) Get(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			// badShape copies the slice so the variadic stays on the stack.
			panic(badShape(s, append([]int(nil), shape...)))
		}
		n *= s
	}
	if list := a.free[n]; len(list) > 0 {
		t := list[len(list)-1]
		a.free[n] = list[:len(list)-1]
		t.Shape = append(t.Shape[:0], shape...)
		clear(t.Data)
		a.hits++
		a.live = append(a.live, t)
		return t
	}
	a.misses++
	t := New(shape...)
	a.live = append(a.live, t)
	return t
}

// Tensors returns a zeroed []*Tensor of length n, reusing a pooled slab of
// the same length when one is free. Like tensors, slabs are step-lifetime:
// valid only until the next Reset.
func (a *Arena) Tensors(n int) []*Tensor {
	if list := a.slabFree[n]; len(list) > 0 {
		s := list[len(list)-1]
		a.slabFree[n] = list[:len(list)-1]
		clear(s)
		a.hits++
		a.slabLive = append(a.slabLive, s)
		return s
	}
	a.misses++
	s := make([]*Tensor, n)
	a.slabLive = append(a.slabLive, s)
	return s
}

// Reset recycles every live tensor back into the free lists. Gradient buffers
// are detached into the tensor's pooled grad slot so the next step's backward
// pass reuses them without reallocating (and without a stale non-nil Grad
// masquerading as "gradient flowed here"). Tensor-slice slabs are recycled
// the same way.
func (a *Arena) Reset() {
	for _, t := range a.live {
		if t.Grad != nil {
			t.gradBuf = t.Grad
			t.Grad = nil
		}
		a.free[len(t.Data)] = append(a.free[len(t.Data)], t)
	}
	a.live = a.live[:0]
	for _, s := range a.slabLive {
		a.slabFree[len(s)] = append(a.slabFree[len(s)], s)
	}
	a.slabLive = a.slabLive[:0]
}

// Stats reports pool reuses and fresh allocations since the arena was built.
func (a *Arena) Stats() (hits, misses int) { return a.hits, a.misses }
