package tensor

// Tape records differentiable operations in execution order as typed op
// records (see records.go) so they can be replayed in reverse to compute
// gradients through the static VJP table.
//
// There is one kind of recording tape: NewTapeArena builds it over its own
// Arena, so every op output, gradient buffer and scratch tensor recorded
// through it is pooled, and Reset recycles them all together with the
// records. A nil *Tape is valid everywhere an op takes one and means "no
// gradients": the op computes its result without recording anything and
// allocates fresh output tensors. Tests use it as a tape-forward reference;
// every forward-only pass in the system runs the inference graph on a
// forward-only backend instead (internal/nn/infer.go, on pooled Slab32
// arenas).
//
// A Tape is not safe for concurrent use. Data-parallel training (see
// perfvec.Trainer) gives each gradient worker its own Tape over its own
// shadow parameter tensors — parameters share Data but not Grad — and reuses
// the tapes across steps via Reset, which retains the record slice's
// capacity. Ops recorded on one tape may still parallelize internally: the
// GEMMs in matmul.go and the row kernels in ops.go and gates.go split their
// work across the worker pool in parallel.go — unless SetSerial keeps them
// on the tape's own goroutine, as a gradient worker's tape does when the
// workers already fill the cores. Either way every GEMM packs its panels
// into the tape's own scratch, and the bits are the same.
type Tape struct {
	recs  []opRecord
	arena *Arena
	// pack is the GEMM engine's packing scratch for every product the tape
	// records or replays (see gemmPacked): grow-only and untouched by
	// Reset, like Slab32.pack.
	pack []float32
	// serial runs every op on the calling goroutine (SetSerial).
	serial bool
	// recGrows counts record-slice capacity growths — the record analogue of
	// the arena's miss counter. Steady-state training must stop growing after
	// the warm-up step; the regression tests assert it.
	recGrows int
}

// NewTapeArena returns an empty recording tape backed by its own Arena.
// Tensors produced on it are only valid until the next Reset (see Arena) —
// and so are its records, which reference them.
func NewTapeArena() *Tape { return &Tape{arena: NewArena()} }

// alloc returns a zeroed output tensor for an op running on this tape:
// pooled through the arena, or freshly allocated on a nil tape.
func (tp *Tape) alloc(shape ...int) *Tensor {
	if tp == nil {
		return New(shape...)
	}
	return tp.arena.Get(shape...)
}

// SetSerial makes every op recorded on tp, and every VJP its Backward
// replays, run on the calling goroutine instead of splitting its work
// across the worker pool: for a goroutine whose peers already occupy every
// core, where a split would only park on workers with no core to run on.
// The bits do not change.
func (tp *Tape) SetSerial(serial bool) { tp.serial = serial }

// parallel runs k over [0, n) through ParallelKernel, or on the calling
// goroutine when tp is serial.
//
//perfvec:hotpath
func (tp *Tape) parallel(n, work int, k Kernel, a KernelArgs) {
	if tp != nil && tp.serial {
		work = 0
	}
	ParallelKernel(n, work, k, a)
}

// gemm runs the packed engine on tp's packing scratch, or on a scratch
// local to the call for a nil tape, which allocates every output too.
//
//perfvec:hotpath
func (tp *Tape) gemm(dst, a, b []float32, m, k, n, lda, ldb, ldc int, aT, bT bool) {
	if tp == nil {
		var scratch []float32
		gemmPacked(&scratch, false, dst, a, b, m, k, n, lda, ldb, ldc, aT, bT, nil)
		return
	}
	gemmPacked(&tp.pack, tp.serial, dst, a, b, m, k, n, lda, ldb, ldc, aT, bT, nil)
}

// Zeros returns a zeroed step-lifetime tensor allocated through tp's arena
// (or freshly on a nil tape). Sequence models use it for initial hidden
// and cell states, and Dataset batching for input windows: buffers that are
// rebuilt every step and must not survive the tape's Reset.
func Zeros(tp *Tape, shape ...int) *Tensor { return tp.alloc(shape...) }

// Tensors returns a step-lifetime []*Tensor of length n, pooled through tp's
// arena (recycled — zeroed — by Reset, like every arena tensor), or freshly
// allocated on a nil tape. Sequence models use it for their per-timestep
// tensor lists.
func (tp *Tape) Tensors(n int) []*Tensor {
	if tp == nil {
		return make([]*Tensor, n)
	}
	return tp.arena.Tensors(n)
}

// record appends an op record; no-op on a nil tape. The record
// slice's capacity is retained across Reset, so steady-state recording
// allocates nothing (recGrows tracks warm-up growths).
func (tp *Tape) record(r opRecord) {
	if tp == nil {
		return
	}
	if len(tp.recs) == cap(tp.recs) {
		tp.recGrows++
	}
	tp.recs = append(tp.recs, r)
}

// Len returns the number of recorded operations.
func (tp *Tape) Len() int {
	if tp == nil {
		return 0
	}
	return len(tp.recs)
}

// Stats reports the current record count, the number of times the record
// slice has grown and the number of arena misses (fresh tensor or slab
// allocations) since the tape was built. A steady-state training loop must
// stop growing and missing after its first step.
func (tp *Tape) Stats() (records, grows, misses int) {
	if tp == nil {
		return 0, 0, 0
	}
	_, misses = tp.arena.Stats()
	return len(tp.recs), tp.recGrows, misses
}

// OpHistogram counts the currently recorded ops by kind name — the
// record-tape profiling hook: called after a step's forward pass (and
// before the next Reset) it reports the op mix of the step's graph, which
// is how graph shape is inspected at paper scale without a debugger (see
// cmd/perfvec-bench -tape-histogram). A nil tape returns an empty map. The map is freshly allocated; this is a profiling call, not a
// hot-path one.
func (tp *Tape) OpHistogram() map[string]int {
	h := map[string]int{}
	if tp == nil {
		return h
	}
	for i := range tp.recs {
		h[opNames[tp.recs[i].kind]]++
	}
	return h
}

// Reset clears the tape for reuse: records are dropped (their tensor refs
// zeroed, capacity retained) and all arena tensors handed out since the
// previous Reset are recycled. Records must not outlive Reset — they
// reference step-lifetime tensors.
func (tp *Tape) Reset() {
	clear(tp.recs)
	tp.recs = tp.recs[:0]
	tp.arena.Reset()
}

// Backward seeds d(loss)/d(loss) = 1 and replays all recorded ops in
// reverse through the VJP table, accumulating gradients into every tensor
// that participated. loss must be a scalar (single-element) tensor produced
// on this tape.
func (tp *Tape) Backward(loss *Tensor) {
	if len(loss.Data) != 1 {
		panic("tensor: Backward requires a scalar loss")
	}
	g := loss.ensureGrad()
	g[0] = 1
	for i := len(tp.recs) - 1; i >= 0; i-- {
		r := &tp.recs[i]
		vjpTable[r.kind](tp, r)
	}
}
