package serve

import (
	"sync"
	"time"

	"repro/internal/perfvec"
)

// encodeReq is one queued encode request. Requests are pooled on a free list
// and reused wholesale — the ProgramData header, the rep buffer, and the
// completion channel — so the steady-state miss path allocates nothing. The
// feature slice is the submitter's and is only borrowed until completion
// (see the pooled-arena lifetime rule in the package comment).
type encodeReq struct {
	pd    perfvec.ProgramData
	key   uint64
	psIdx int           // index into the owning batch's ps/dst
	rep   []float32     // len RepDim; receives this request's representation
	done  chan struct{} // cap 1; signalled when rep is filled
	next  *encodeReq    // free-list link
}

// batch is one coalesced encoder pass: the requests it serves plus the
// program list and destination slices handed to the batch encode. Duplicate
// keys share one ps entry (psIdx), so a program submitted by several clients
// in the same window is encoded once. Batches are pooled like requests.
type batch struct {
	reqs []*encodeReq
	ps   []*perfvec.ProgramData
	keys []uint64
	dst  [][]float32
	uniq map[uint64]int
	next *batch
}

// batcher coalesces cache-miss submissions into batched encoder passes: a
// collector goroutine drains the bounded accept queue into time/size-bounded
// batches (see "Batching window semantics" in the package comment) and
// encode workers run each batch on a pooled perfvec.Encoder.
type batcher struct {
	f         *perfvec.Foundation
	cache     *RepCache
	m         *Metrics
	window    time.Duration
	maxRows   int
	repDim    int
	precision Precision

	queue   chan *encodeReq // the bounded accept queue
	batches chan *batch

	mu         sync.Mutex
	reqFree    *encodeReq
	batchFree  *batch
	reqBuilt   int // construction counters; the pooling tests watch them
	batchBuilt int

	wg sync.WaitGroup
}

// newBatcher starts the collector and workers encode-worker goroutines.
func newBatcher(f *perfvec.Foundation, cache *RepCache, m *Metrics, window time.Duration, maxRows, queueDepth, workers int, precision Precision) *batcher {
	b := &batcher{
		f: f, cache: cache, m: m,
		window: window, maxRows: maxRows, repDim: f.Cfg.RepDim,
		precision: precision,
		queue:     make(chan *encodeReq, queueDepth),
		batches:   make(chan *batch, workers),
	}
	b.wg.Add(1 + workers)
	go b.collect()
	for i := 0; i < workers; i++ {
		go b.encodeWorker()
	}
	return b
}

// close drains and stops the batcher. No encode call may be in flight or
// arrive afterwards (the Service's close lock guarantees it); queued
// requests are still served before the workers exit.
func (b *batcher) close() {
	close(b.queue)
	b.wg.Wait()
}

// encode submits one program for batched encoding and blocks until its
// representation is copied into dst. A full accept queue rejects immediately
// with errOverloaded — overload never blocks the caller.
//
//perfvec:hotpath
func (b *batcher) encode(features []float32, n int, key uint64, dst []float32) error {
	r := b.getReq()
	r.pd.N = n
	r.pd.FeatDim = b.f.Cfg.FeatDim
	r.pd.Features = features
	r.key = key
	select {
	case b.queue <- r:
	default:
		r.pd.Features = nil
		b.putReq(r)
		return errOverloaded
	}
	<-r.done
	copy(dst, r.rep)
	r.pd.Features = nil
	b.putReq(r)
	return nil
}

// collect is the batching loop: open a batch on the first dequeued request,
// drain greedily, wait out the batching window if one is configured, and
// flush on whichever of the size/time bounds trips first.
func (b *batcher) collect() {
	defer b.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	open := true
	for open {
		r, ok := <-b.queue
		if !ok {
			break
		}
		bt := b.getBatch()
		rows := b.add(bt, r)
		timed := b.window > 0
		if timed {
			timer.Reset(b.window)
		}
	fill:
		for rows < b.maxRows {
			select {
			case r2, ok2 := <-b.queue:
				if !ok2 {
					open = false
					break fill
				}
				rows += b.add(bt, r2)
			default:
				if !timed {
					break fill
				}
				select {
				case r2, ok2 := <-b.queue:
					if !ok2 {
						open = false
						break fill
					}
					rows += b.add(bt, r2)
				case <-timer.C:
					timed = false // fired; nothing left to drain
					break fill
				}
			}
		}
		if timed && !timer.Stop() {
			<-timer.C // size bound won the race; drain for reuse
		}
		b.m.Batches.Add(1)
		b.m.BatchedRows.Add(uint64(rows))
		b.batches <- bt
	}
	close(b.batches)
}

// add appends r to bt, coalescing duplicate keys onto one encode, and
// returns the instruction rows the request adds to the batch.
//
//perfvec:hotpath
func (b *batcher) add(bt *batch, r *encodeReq) int {
	if j, dup := bt.uniq[r.key]; dup {
		r.psIdx = j
		bt.reqs = append(bt.reqs, r) //perfvec:allow hotalloc -- batch slices retain capacity across reuse; growth stops once the largest batch shape has been seen
		b.m.Coalesced.Add(1)
		return 0
	}
	j := len(bt.ps)
	bt.uniq[r.key] = j
	r.psIdx = j
	bt.reqs = append(bt.reqs, r)     //perfvec:allow hotalloc -- see above: capacity retained across batch reuse
	bt.ps = append(bt.ps, &r.pd)     //perfvec:allow hotalloc -- see above: capacity retained across batch reuse
	bt.keys = append(bt.keys, r.key) //perfvec:allow hotalloc -- see above: capacity retained across batch reuse
	bt.dst = append(bt.dst, r.rep)   //perfvec:allow hotalloc -- see above: capacity retained across batch reuse
	return r.pd.N
}

// encodeWorker runs batches through the configured numeric engine — one
// coalesced pass per batch on a pooled encoder — then fills the cache for
// every unique program and signals each submitter with its representation.
// PrecisionF32 is the forward-only float32 engine, bitwise identical to the
// training forward and to Foundation.ProgramRep; PrecisionInt8 is the
// quantized engine. Both write float32 representations, so the cache layout
// never varies by tier.
func (b *batcher) encodeWorker() {
	defer b.wg.Done()
	// woken holds the batch's requests while the batch itself is recycled:
	// the batch goes back to the pool before any submitter is signalled, so
	// a submitter's next request never finds the pool empty because this
	// worker has not yet returned the batch that served its last one.
	var woken []*encodeReq
	for bt := range b.batches {
		e := b.f.AcquireEncoder()
		if b.precision == PrecisionInt8 {
			e.EncodeProgramsQ8(bt.ps, bt.dst)
		} else {
			e.EncodePrograms32(bt.ps, bt.dst)
		}
		b.f.ReleaseEncoder(e)
		for i, key := range bt.keys {
			b.cache.Put(key, bt.dst[i])
		}
		for _, r := range bt.reqs {
			copy(r.rep, bt.dst[r.psIdx])
		}
		woken = append(woken[:0], bt.reqs...)
		b.putBatch(bt)
		for _, r := range woken {
			r.done <- struct{}{}
		}
		clear(woken)
	}
}

// getReq pops a pooled request, building one on first use.
//
//perfvec:hotpath
func (b *batcher) getReq() *encodeReq {
	b.mu.Lock()
	if r := b.reqFree; r != nil {
		b.reqFree = r.next
		b.mu.Unlock()
		r.next = nil
		return r
	}
	b.reqBuilt++
	b.mu.Unlock()
	return &encodeReq{rep: make([]float32, b.repDim), done: make(chan struct{}, 1)} //perfvec:allow hotalloc -- pool warm-up only; bounded by peak in-flight requests
}

//perfvec:hotpath
func (b *batcher) putReq(r *encodeReq) {
	b.mu.Lock()
	r.next = b.reqFree
	b.reqFree = r
	b.mu.Unlock()
}

// getBatch pops a pooled batch, building one on first use.
func (b *batcher) getBatch() *batch {
	b.mu.Lock()
	if bt := b.batchFree; bt != nil {
		b.batchFree = bt.next
		b.mu.Unlock()
		bt.next = nil
		return bt
	}
	b.batchBuilt++
	b.mu.Unlock()
	return &batch{uniq: make(map[uint64]int)}
}

// putBatch clears a finished batch (retaining slice and map capacity) and
// returns it to the pool.
func (b *batcher) putBatch(bt *batch) {
	clear(bt.reqs)
	bt.reqs = bt.reqs[:0]
	clear(bt.ps)
	bt.ps = bt.ps[:0]
	bt.keys = bt.keys[:0]
	clear(bt.dst)
	bt.dst = bt.dst[:0]
	clear(bt.uniq)
	b.mu.Lock()
	bt.next = b.batchFree
	b.batchFree = bt
	b.mu.Unlock()
}

// poolStats reports how many request and batch objects have been built — the
// reused-request-buffer regression counters.
func (b *batcher) poolStats() (reqs, batches int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reqBuilt, b.batchBuilt
}
