package tensor

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// kVisitProbe counts one visit per index of its chunk. X=[]int32 (one
// counter per index of the dispatched range).
func kVisitProbe(s, e int, ka KernelArgs) {
	seen := ka.X.([]int32)
	for i := s; i < e; i++ {
		atomic.AddInt32(&seen[i], 1)
	}
}

// kSumProbe adds the indices of its chunk to the total. X=*atomic.Int64.
func kSumProbe(s, e int, ka KernelArgs) {
	var local int64
	for i := s; i < e; i++ {
		local += int64(i)
	}
	ka.X.(*atomic.Int64).Add(local)
}

// kNestedOuter dispatches one inner ParallelKernel call per index of its
// chunk, from inside whichever goroutine (caller or pool worker) runs it.
// X=[]int32 (I0 x I0 visit counters); I0=inner range length.
func kNestedOuter(s, e int, ka KernelArgs) {
	for i := s; i < e; i++ {
		inner := ka
		inner.I[1] = i
		ParallelKernel(ka.I[0], parallelThreshold, kNestedInner, inner)
	}
}

// kNestedInner counts visits of row I1 of kNestedOuter's counters.
// X=[]int32; I0=row length; I1=row.
func kNestedInner(s, e int, ka KernelArgs) {
	row := ka.X.([]int32)[ka.I[1]*ka.I[0] : (ka.I[1]+1)*ka.I[0]]
	for j := s; j < e; j++ {
		atomic.AddInt32(&row[j], 1)
	}
}

// visitOnce dispatches kVisitProbe over [0, n) with the given work estimate
// and fails unless every index was visited exactly once.
func visitOnce(t *testing.T, n, work int) {
	t.Helper()
	seen := make([]int32, n)
	ParallelKernel(n, work, kVisitProbe, KernelArgs{X: seen})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("n=%d work=%d: index %d visited %d times", n, work, i, v)
		}
	}
}

// TestParallelCoversRange checks that ParallelKernel hands every index of
// [0, n) to exactly one kernel invocation, on the serial path (work below
// parallelThreshold) and the split path (at it), for range lengths below,
// at and above the worker count.
func TestParallelCoversRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{2, 3, 4, 5, 7, 64, 1000} {
		for _, work := range []int{parallelThreshold - 1, parallelThreshold} {
			visitOnce(t, n, work)
		}
	}
}

// TestParallelSmallN covers the degenerate ranges: n = 0 must run nothing
// (or an empty chunk) and n = 1 must visit its one index once, on both
// sides of parallelThreshold.
func TestParallelSmallN(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, work := range []int{0, parallelThreshold - 1, parallelThreshold} {
		visitOnce(t, 0, work)
		visitOnce(t, 1, work)
	}
}

// TestParallelNestedNoDeadlock exercises ParallelKernel calls issued from
// inside pool workers, as the encode ranges' GEMMs do: the unbuffered
// dispatch channel plus run-inline fallback must never deadlock, whatever
// the nesting.
func TestParallelNestedNoDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 64
	total := make([]int32, n*n)
	ParallelKernel(n, parallelThreshold, kNestedOuter, KernelArgs{I: [6]int{n}, X: total})
	for i, v := range total {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestPoolResizesWithGOMAXPROCS toggles GOMAXPROCS after the pool's first
// use and checks that the worker pool follows: growth on the next dispatch,
// best-effort shrink as idle workers retire, and correct results throughout
// (the seed pool was sized once at first use and never adapted).
func TestPoolResizesWithGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	sum := func(n int) int64 {
		var s atomic.Int64
		ParallelKernel(n, parallelThreshold, kSumProbe, KernelArgs{X: &s})
		return s.Load()
	}
	const n = 1 << 12
	want := int64(n) * (n - 1) / 2

	runtime.GOMAXPROCS(2)
	if got := sum(n); got != want {
		t.Fatalf("sum at GOMAXPROCS=2: got %d want %d", got, want)
	}
	if ps := int(poolSize.Load()); ps != 2 {
		t.Fatalf("pool size %d after dispatch at GOMAXPROCS=2", ps)
	}

	runtime.GOMAXPROCS(4)
	if got := sum(n); got != want {
		t.Fatalf("sum at GOMAXPROCS=4: got %d want %d", got, want)
	}
	if ps := int(poolSize.Load()); ps != 4 {
		t.Fatalf("pool did not grow to 4 workers, has %d", ps)
	}

	// Shrink is best-effort: a quit task is only handed to an idle worker,
	// so allow a few dispatch rounds for the retirements to land.
	runtime.GOMAXPROCS(2)
	deadline := time.Now().Add(5 * time.Second)
	for int(poolSize.Load()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not shrink to 2 workers, has %d", poolSize.Load())
		}
		if got := sum(n); got != want {
			t.Fatalf("sum during shrink: got %d want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}

	// The shrunken pool must still complete work correctly.
	if got := sum(n); got != want {
		t.Fatalf("sum after shrink: got %d want %d", got, want)
	}
}
