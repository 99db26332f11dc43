package serve

import "testing"

// TestServeSteadyStateAllocs pins the zero-allocation serving contract after
// warm-up: cache-hit submits and predicts allocate nothing, and the miss
// path stops building request/batch/encoder objects once the pools have seen
// the peak shape (the construction counters freeze). The strict
// AllocsPerRun assertions are skipped under -race (the detector allocates);
// the pooling-counter assertions run everywhere.
func TestServeSteadyStateAllocs(t *testing.T) {
	s := newTestService(t, 3, func(c *Config) {
		c.CacheSize = 4 // smaller than the pool so misses keep happening
	})
	f := s.Model()
	tr := NewTraffic(LoadConfig{Seed: 77, Programs: 16, MinInstrs: 3, MaxInstrs: 24, Requests: 16, Clients: 1}, f.Cfg.FeatDim)
	dst := make([]float32, f.Cfg.RepDim)

	submit := func(p int) uint64 {
		key, err := s.Submit("c", tr.feats[p], tr.instrs[p], dst)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}

	// Warm-up: fill the pools, the cache, the arena, and the limiter.
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < tr.cfg.Programs; p++ {
			submit(p)
		}
	}
	reqs0, batches0 := s.PoolStats()
	_, grows0 := f.EncoderStats()

	// Steady state: more of the same traffic.
	var lastKey uint64
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < tr.cfg.Programs; p++ {
			lastKey = submit(p)
		}
	}

	if reqs, batches := s.PoolStats(); reqs != reqs0 || batches != batches0 {
		t.Fatalf("pools kept building in steady state: reqs %d->%d, batches %d->%d",
			reqs0, reqs, batches0, batches)
	}
	if _, grows := f.EncoderStats(); grows != grows0 {
		t.Fatalf("encoder arenas grew in steady state: %d -> %d", grows0, grows)
	}

	if raceEnabled {
		t.Skip("AllocsPerRun assertions skipped under -race")
	}

	// The hit path: the last submitted program is cached (cache size 4,
	// sequential traffic ends on it).
	hitP := tr.cfg.Programs - 1
	if n := testing.AllocsPerRun(100, func() { submit(hitP) }); n != 0 {
		t.Fatalf("cache-hit Submit allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := s.Predict(lastKey, 1); !ok {
			t.Fatal("predict missed during alloc measurement")
		}
	}); n != 0 {
		t.Fatalf("Predict allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { HashProgram(tr.feats[0], f.Cfg.FeatDim) }); n != 0 {
		t.Fatalf("HashProgram allocates %v/op, want 0", n)
	}
}

// TestEncoderPoolBounded checks that concurrent fleets reuse pooled request
// and batch objects instead of growing without bound: after a warm-up fleet,
// a second identical fleet must not build more request objects than its peak
// concurrency could possibly need.
func TestEncoderPoolBounded(t *testing.T) {
	s := newTestService(t, 2, func(c *Config) { c.CacheSize = 4; c.QueueDepth = 512 })
	tr := NewTraffic(LoadConfig{Seed: 88, Programs: 32, MinInstrs: 1, MaxInstrs: 20, Requests: 128, Clients: 4}, s.Model().Cfg.FeatDim)

	tr.RunFleet(s, 8)
	reqs0, _ := s.PoolStats()
	tr.RunFleet(s, 8)
	reqs1, _ := s.PoolStats()

	// The second fleet runs the same load at the same concurrency; the free
	// lists already hold every object the first fleet built.
	if reqs1 != reqs0 {
		t.Fatalf("second identical fleet built %d new request objects", reqs1-reqs0)
	}
}
