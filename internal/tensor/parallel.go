package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the estimated number of scalar operations below which
// an op runs serially: a pool handoff costs on the order of a microsecond, so
// smaller problems lose more to dispatch than they gain from extra cores.
// ParallelKernel applies it; Parallel itself splits whenever more than one
// worker is available.
const parallelThreshold = 1 << 15

// task is one contiguous chunk of a Parallel or ParallelKernel call,
// dispatched to the pool. Exactly one of fn (closure form) or kern (typed
// kernel form, with its argument block carried by value in args) is set.
// A task with quit set tells the receiving worker to exit (pool shrink).
type task struct {
	fn         func(start, end int)
	kern       Kernel
	args       KernelArgs
	start, end int
	wg         *sync.WaitGroup
	quit       bool
}

// KernelArgs is the by-value argument block of a ParallelKernel dispatch: up
// to 8 float32 slices, the integer-typed slices the quantized engine needs
// (packed u8 activations, packed i8 weights, i32 accumulators), 6 ints, and
// 6 float32 scalars, copied through the task queue so that nothing about a
// dispatch escapes to the heap. Each kernel documents its own slot layout
// (the convention mirrors the opRecord field layouts in records.go).
//
// X is for kernels outside this package whose arguments do not fit the
// typed slots: a pointer to the caller's own (pooled) argument struct,
// which an interface stores without allocating.
type KernelArgs struct {
	S [8][]float32
	U [2][]uint8
	P [2][]int8
	Z [3][]int32
	I [6]int
	F [6]float32
	X any
}

// Kernel is a pool-dispatchable loop body over [start, end): a top-level
// function receiving its arguments by value. Unlike the closure form
// (Parallel), invoking a Kernel allocates nothing — a func literal that
// escapes into the task queue costs one heap object per call site per
// invocation, which was the dominant per-op allocation left in the
// training step once tensors and records were pooled. All tensor-op forward
// and VJP loops, the GEMM wrappers, and nn's Adam update dispatch through
// kernels.
type Kernel func(start, end int, a KernelArgs)

// ParallelKernel runs k over [0, n) like Parallel when the estimated scalar
// work meets parallelThreshold, and serially otherwise. work is the caller's
// estimate of total scalar operations: m*n*k for a GEMM, elements times
// per-element cost for elementwise ops (so a low-row, high-work problem
// still splits). Chunk boundaries are identical to Parallel's, so the
// bitwise-determinism contract is unchanged.
func ParallelKernel(n, work int, k Kernel, a KernelArgs) {
	if work < parallelThreshold {
		k(0, n, a)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		k(0, n, a)
		return
	}
	ensurePool()
	chunk := (n + workers - 1) / workers
	wg := wgPool.Get().(*sync.WaitGroup)
	for start := chunk; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		t := task{kern: k, args: a, start: start, end: end, wg: wg}
		wg.Add(1)
		select {
		case poolTasks <- t:
		default:
			// No idle worker: run the chunk here instead of queueing.
			k(start, end, a)
			wg.Done()
		}
	}
	k(0, chunk, a) // the caller always works on the first chunk itself
	wg.Wait()
	wgPool.Put(wg)
}

var (
	// poolSize is the number of live pool workers; ensurePool's lock-free
	// fast path reads it, resizes take poolMu.
	poolSize  atomic.Int32
	poolMu    sync.Mutex
	poolTasks chan task
)

// wgPool recycles the WaitGroup each Parallel call hands to its tasks; the
// group escapes into the task struct, so without pooling every parallelized
// op (every GEMM pass of every training step) would heap-allocate one.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// ensurePool sizes the persistent worker pool to the current GOMAXPROCS,
// growing or shrinking it when the value has changed since the last call
// (the seed pool was sized once, at first use, and never adapted). Growth is
// immediate; shrinking is best-effort — a quit task is handed only to an
// already-idle worker, so a busy pool finishes its chunks and shrinks on a
// later call. The fast path (size unchanged) is one atomic load.
//
// Pool size only bounds how many chunks can run concurrently; chunk
// boundaries are computed from GOMAXPROCS in Parallel itself, so results
// remain bitwise-deterministic even while a resize is pending.
func ensurePool() {
	n := int32(runtime.GOMAXPROCS(0))
	if poolSize.Load() == n {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolTasks == nil {
		// Unbuffered: a dispatch succeeds only when a worker is actually
		// idle; Parallel runs any chunk it cannot hand off on the calling
		// goroutine. That keeps nested Parallel calls (a worker's chunk
		// itself calling Parallel) deadlock-free: work never waits in a
		// queue that only blocked workers could drain.
		poolTasks = make(chan task)
	}
	for poolSize.Load() < n {
		go poolWorker()
		poolSize.Add(1)
	}
	for poolSize.Load() > n {
		select {
		case poolTasks <- task{quit: true}:
			poolSize.Add(-1)
		default:
			return // no idle worker to retire; retry on a later call
		}
	}
}

// poolWorker runs chunks until it receives a quit task.
func poolWorker() {
	for t := range poolTasks {
		switch {
		case t.quit:
			return
		case t.kern != nil:
			t.kern(t.start, t.end, t.args)
		default:
			t.fn(t.start, t.end)
		}
		t.wg.Done()
	}
}

// Parallel splits [0, n) into one contiguous chunk per available worker and
// runs fn on the chunks concurrently, blocking until all complete. Chunk
// boundaries depend only on n and GOMAXPROCS, and every index is processed by
// exactly one invocation of fn, so ops whose per-index arithmetic does not
// depend on chunk grouping produce bitwise-identical results at any worker
// count.
//
// Chunks are executed by a persistent worker pool instead of freshly
// spawned goroutines, and the pool resizes when GOMAXPROCS changes after
// first use.
func Parallel(n int, fn func(start, end int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	ensurePool()
	chunk := (n + workers - 1) / workers
	wg := wgPool.Get().(*sync.WaitGroup)
	for start := chunk; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		t := task{fn: fn, start: start, end: end, wg: wg}
		wg.Add(1)
		select {
		case poolTasks <- t:
		default:
			// No idle worker: run the chunk here instead of queueing.
			fn(t.start, t.end)
			wg.Done()
		}
	}
	fn(0, chunk) // the caller always works on the first chunk itself
	wg.Wait()
	wgPool.Put(wg)
}
