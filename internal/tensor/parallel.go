package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the estimated number of scalar operations below which
// an op runs serially: a pool handoff costs on the order of a microsecond, so
// smaller problems lose more to dispatch than they gain from extra cores.
const parallelThreshold = 1 << 15

// task is one contiguous chunk of a ParallelKernel call, dispatched to the
// pool: the kernel and its argument block, carried by value. A task with
// quit set tells the receiving worker to exit (pool shrink).
type task struct {
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
// function receiving its arguments by value. Invoking a Kernel allocates
// nothing, where a func literal escaping into the task queue would cost one
// heap object per call site per invocation. Kernels are the pool's only
// form of work: the tensor ops' forward and VJP loops, the GEMM wrappers,
// nn's Adam update, and perfvec's encode ranges and evaluation shards.
type Kernel func(start, end int, a KernelArgs)

// ParallelKernel runs k over [0, n), blocking until every index is done.
// When the estimated scalar work meets parallelThreshold and more than one
// worker is available, it splits [0, n) into one contiguous chunk per
// worker and runs the chunks concurrently on the persistent worker pool;
// otherwise it runs k(0, n) on the calling goroutine. work is the caller's
// estimate of total scalar operations: m*n*k for a GEMM, elements times
// per-element cost for elementwise ops (so a low-row, high-work problem
// still splits).
//
// Chunk boundaries depend only on n and GOMAXPROCS, and every index is
// processed by exactly one invocation of k, so kernels whose per-index
// arithmetic does not depend on chunk grouping produce bitwise-identical
// results at any worker count. The caller always runs the chunk at index
// 0 itself.
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

// wgPool recycles the WaitGroup each ParallelKernel call hands to its
// tasks; the group escapes into the task struct, so without pooling every
// parallelized op (every GEMM pass of every training step) would
// heap-allocate one.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// ensurePool sizes the persistent worker pool to the current GOMAXPROCS,
// growing or shrinking it when the value has changed since the last call
// (the seed pool was sized once, at first use, and never adapted). Growth is
// immediate; shrinking is best-effort — a quit task is handed only to an
// already-idle worker, so a busy pool finishes its chunks and shrinks on a
// later call. The fast path (size unchanged) is one atomic load.
//
// Pool size only bounds how many chunks can run concurrently; chunk
// boundaries are computed from GOMAXPROCS in ParallelKernel itself, so
// results remain bitwise-deterministic even while a resize is pending.
func ensurePool() {
	n := int32(runtime.GOMAXPROCS(0))
	if poolSize.Load() == n {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolTasks == nil {
		// Unbuffered: a dispatch succeeds only when a worker is actually
		// idle; ParallelKernel runs any chunk it cannot hand off on the
		// calling goroutine. That keeps nested dispatches (a worker's
		// chunk itself calling ParallelKernel) deadlock-free: work never
		// waits in a queue that only blocked workers could drain.
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
		if t.quit {
			return
		}
		t.kern(t.start, t.end, t.args)
		t.wg.Done()
	}
}
