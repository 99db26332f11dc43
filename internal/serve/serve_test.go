package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfvec"
)

// testClock is a virtual clock for the limiter tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestService builds a started service over a fresh default foundation
// model (LSTM-2-32) and a k-microarchitecture table, cleaning both up with
// the test.
func newTestService(t testing.TB, k int, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{Model: perfvec.NewFoundation(perfvec.DefaultConfig())}
	if k > 0 {
		cfg.Table = perfvec.NewTable(k, perfvec.DefaultConfig().RepDim, 11)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// progData adapts a traffic pool entry to the reference single-program path.
func progData(fs []float32, n, featDim int) *perfvec.ProgramData {
	return &perfvec.ProgramData{N: n, FeatDim: featDim, Features: fs}
}

// TestSubmitBitwiseMatchesSingle is the coalescing correctness pin: whatever
// batch a submission lands in — alone, coalesced with concurrent requests,
// split at any MaxBatchRows bound, with any remainder shape — the returned
// representation must be bitwise identical to the single-program reference
// path (Foundation.ProgramRep). Concurrency decides batch composition
// nondeterministically, so passing for every interleaving is the point.
func TestSubmitBitwiseMatchesSingle(t *testing.T) {
	tr := NewTraffic(LoadConfig{
		Seed: 41, Programs: 24, MinInstrs: 1, MaxInstrs: 300,
		Requests: 96, Clients: 4,
	}, perfvec.DefaultConfig().FeatDim)

	for _, tc := range []struct {
		name    string
		rows    int
		window  time.Duration
		workers int
	}{
		{"naive-1row", 1, -1, 4},
		{"rows7", 7, -1, 4},
		{"rows256-window", 256, 200 * time.Microsecond, 8},
		{"rows4096-window", 4096, time.Millisecond, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestService(t, 3, func(c *Config) {
				c.MaxBatchRows = tc.rows
				c.BatchWindow = tc.window
				c.CacheSize = 1 // force nearly every request through the batcher
			})
			f := s.Model()

			want := make([][]float32, tr.cfg.Programs)
			for p := range want {
				want[p] = f.ProgramRep(progData(tr.feats[p], tr.instrs[p], f.Cfg.FeatDim))
			}

			var wg sync.WaitGroup
			errs := make(chan string, tr.Requests())
			wg.Add(tc.workers)
			for w := 0; w < tc.workers; w++ {
				go func(w int) {
					defer wg.Done()
					dst := make([]float32, f.Cfg.RepDim)
					for i := w; i < tr.Requests(); i += tc.workers {
						fs, n := tr.Program(i)
						if _, err := s.Submit(tr.Client(i), fs, n, dst); err != nil {
							errs <- err.Error()
							return
						}
						ref := want[tr.order[i]]
						for j := range ref {
							if dst[j] != ref[j] {
								errs <- "representation diverges from single-program path"
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		})
	}
}

// TestReplayDeterministic pins the load harness end to end: the same seed
// must produce the same request sequence (keys, in order) and — under
// sequential replay with a cache big enough to never evict — exactly the
// first occurrence of each program must miss, run after run, service after
// service.
func TestReplayDeterministic(t *testing.T) {
	cfg := LoadConfig{Seed: 7, Programs: 16, MinInstrs: 2, MaxInstrs: 40, Requests: 200, Clients: 3}
	featDim := perfvec.DefaultConfig().FeatDim

	var first ReplayStats
	for run := 0; run < 2; run++ {
		tr := NewTraffic(cfg, featDim)
		s := newTestService(t, 2, nil)
		st, err := tr.Replay(s)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if st.Misses != tr.ExpectedMisses() {
			t.Fatalf("run %d: %d misses, oracle says %d", run, st.Misses, tr.ExpectedMisses())
		}
		if st.Hits+st.Misses != cfg.Requests {
			t.Fatalf("run %d: hits %d + misses %d != %d requests", run, st.Hits, st.Misses, cfg.Requests)
		}
		if run == 0 {
			first = st
			continue
		}
		if st.Hits != first.Hits || st.Misses != first.Misses {
			t.Fatalf("hit/miss counts changed across identically seeded runs: (%d,%d) vs (%d,%d)",
				st.Hits, st.Misses, first.Hits, first.Misses)
		}
		for i := range st.Keys {
			if st.Keys[i] != first.Keys[i] {
				t.Fatalf("request %d key changed across identically seeded runs", i)
			}
		}
	}
}

// TestPredictBitwise checks the cached predictor pass against the reference:
// Predict(key, j) must equal Foundation.PredictTotalNs bit for bit for every
// microarchitecture, and one cached entry must serve them all without
// further encoder work.
func TestPredictBitwise(t *testing.T) {
	const k = 5
	s := newTestService(t, k, nil)
	f := s.Model()
	tr := NewTraffic(LoadConfig{Seed: 3, Programs: 4, MinInstrs: 5, MaxInstrs: 60, Requests: 4, Clients: 1}, f.Cfg.FeatDim)

	dst := make([]float32, f.Cfg.RepDim)
	for p := 0; p < tr.cfg.Programs; p++ {
		key, err := s.Submit("c", tr.feats[p], tr.instrs[p], dst)
		if err != nil {
			t.Fatal(err)
		}
		rep := f.ProgramRep(progData(tr.feats[p], tr.instrs[p], f.Cfg.FeatDim))
		batches := s.Metrics().Batches.Load()
		for j := 0; j < k; j++ {
			got, ok := s.Predict(key, j)
			if !ok {
				t.Fatalf("predict miss for a just-submitted key")
			}
			if want := f.PredictTotalNs(rep, s.table.Rep(j)); got != want {
				t.Fatalf("program %d uarch %d: Predict %v != PredictTotalNs %v", p, j, got, want)
			}
		}
		if s.Metrics().Batches.Load() != batches {
			t.Fatalf("predict sweep triggered encoder work")
		}
	}
	if _, ok := s.Predict(0xdead, 0); ok {
		t.Fatal("predict of an unknown key reported ok")
	}
	if _, ok := s.Predict(1, k); ok {
		t.Fatal("predict of an out-of-range uarch reported ok")
	}
}

// TestRateLimit drives the per-client token buckets on a virtual clock:
// burst admits, exhaustion rejects with ErrRateLimited (and bumps the 429
// counter), time refills, and other clients are unaffected.
func TestRateLimit(t *testing.T) {
	clk := &testClock{t: time.Unix(1000, 0)}
	s := newTestService(t, 1, func(c *Config) {
		c.Rate = 1
		c.Burst = 2
		c.Clock = clk.now
	})
	f := s.Model()
	tr := NewTraffic(LoadConfig{Seed: 9, Programs: 1, MinInstrs: 4, MaxInstrs: 4, Requests: 1, Clients: 1}, f.Cfg.FeatDim)
	fs, n := tr.Program(0)
	dst := make([]float32, f.Cfg.RepDim)

	for i := 0; i < 2; i++ {
		if _, err := s.Submit("alice", fs, n, dst); err != nil {
			t.Fatalf("burst request %d rejected: %v", i, err)
		}
	}
	if _, err := s.Submit("alice", fs, n, dst); err != ErrRateLimited {
		t.Fatalf("drained bucket returned %v, want ErrRateLimited", err)
	}
	if got := s.Metrics().RejectedRate.Load(); got != 1 {
		t.Fatalf("RejectedRate = %d, want 1", got)
	}
	if _, err := s.Submit("bob", fs, n, dst); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	clk.advance(time.Second)
	if _, err := s.Submit("alice", fs, n, dst); err != nil {
		t.Fatalf("refilled bucket rejected: %v", err)
	}
	if ra := s.RetryAfter(); ra != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s at rate 1", ra)
	}
}

// TestQueueOverload exercises the bounded accept queue deterministically by
// driving a collector-less batcher directly: with the queue full, encode
// must reject immediately with errOverloaded instead of blocking.
func TestQueueOverload(t *testing.T) {
	f := perfvec.NewFoundation(perfvec.DefaultConfig())
	var m Metrics
	b := &batcher{
		f: f, m: &m, repDim: f.Cfg.RepDim, maxRows: 1,
		queue: make(chan *encodeReq, 1),
	}
	fs := make([]float32, 2*f.Cfg.FeatDim)

	done := make(chan error, 1)
	go func() {
		dst := make([]float32, f.Cfg.RepDim)
		done <- b.encode(fs, 2, 1, dst) // fills the queue, blocks on completion
	}()
	// Wait until the first request occupies the queue slot.
	for len(b.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	dst := make([]float32, f.Cfg.RepDim)
	if err := b.encode(fs, 2, 2, dst); err != errOverloaded {
		t.Fatalf("full queue returned %v, want errOverloaded", err)
	}
	// Drain the queued request by hand so the first encode completes.
	r := <-b.queue
	copy(r.rep, make([]float32, f.Cfg.RepDim))
	r.done <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("queued encode failed: %v", err)
	}
}

// TestServiceClosed checks the shutdown contract: misses after Close return
// ErrClosed (hits still serve from the cache — closing stops the encoder,
// not reads).
func TestServiceClosed(t *testing.T) {
	s := newTestService(t, 1, nil)
	f := s.Model()
	tr := NewTraffic(LoadConfig{Seed: 5, Programs: 2, MinInstrs: 3, MaxInstrs: 9, Requests: 2, Clients: 1}, f.Cfg.FeatDim)
	dst := make([]float32, f.Cfg.RepDim)
	if _, err := s.Submit("c", tr.feats[0], tr.instrs[0], dst); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit("c", tr.feats[0], tr.instrs[0], dst); err != nil {
		t.Fatalf("cache hit after Close failed: %v", err)
	}
	if _, err := s.Submit("c", tr.feats[1], tr.instrs[1], dst); err != ErrClosed {
		t.Fatalf("miss after Close returned %v, want ErrClosed", err)
	}
}

// TestBadRequests checks Submit's validation.
func TestBadRequests(t *testing.T) {
	s := newTestService(t, 1, nil)
	f := s.Model()
	dst := make([]float32, f.Cfg.RepDim)
	fs := make([]float32, 3*f.Cfg.FeatDim)
	if _, err := s.Submit("c", fs, 0, dst); err != ErrBadRequest {
		t.Fatalf("n=0 returned %v", err)
	}
	if _, err := s.Submit("c", fs, 4, dst); err != ErrBadRequest {
		t.Fatalf("short features returned %v", err)
	}
	if _, err := s.Submit("c", fs, 3, dst[:1]); err != ErrBadRequest {
		t.Fatalf("short dst returned %v", err)
	}
}

// TestDuplicateKeysSurviveBatchRecycle is a targeted stress test: many
// goroutines submit the SAME program (so batches carry duplicate keys)
// while the cache is continuously flushed (so submissions keep missing and
// re-entering the batcher). A unique request's rep buffer is the batch's
// dst; if it is recycled and re-encoded by another worker while the first
// worker is still copying it out to duplicate requests, -race fires (CI
// runs this package under -race).
func TestDuplicateKeysSurviveBatchRecycle(t *testing.T) {
	s := newTestService(t, 0, func(c *Config) {
		c.EncodeWorkers = 4
		c.BatchWindow = 200 * time.Microsecond
		c.MaxBatchRows = 1024
		c.QueueDepth = 1024
	})
	fd := s.f.Cfg.FeatDim
	feats := make([]float32, 1*fd)
	for i := range feats {
		feats[i] = float32(i%7) * 0.25
	}
	var stop atomic.Bool
	go func() {
		for !stop.Load() {
			s.Cache().Flush()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float32, s.f.Cfg.RepDim)
			for i := 0; i < 300; i++ {
				if _, err := s.Submit("c", feats, 1, dst); err != nil {
					i--
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
}
