package serve

import (
	"slices"
	"testing"
	"time"

	"repro/internal/perfvec"
)

// TestTrafficDeterministic checks the generator itself: identical seeds give
// identical traces, different seeds differ.
func TestTrafficDeterministic(t *testing.T) {
	cfg := LoadConfig{Seed: 21, Programs: 8, MinInstrs: 1, MaxInstrs: 30, Requests: 50, Clients: 4}
	a := NewTraffic(cfg, 51)
	b := NewTraffic(cfg, 51)
	for i := 0; i < a.Requests(); i++ {
		fa, na := a.Program(i)
		fb, nb := b.Program(i)
		if na != nb || a.Client(i) != b.Client(i) {
			t.Fatalf("request %d differs across identically seeded traces", i)
		}
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("request %d features differ across identically seeded traces", i)
			}
		}
	}
	cfg.Seed = 22
	c := NewTraffic(cfg, 51)
	same := true
	for i := 0; i < a.Requests() && same; i++ {
		_, na := a.Program(i)
		_, nc := c.Program(i)
		same = na == nc && a.order[i] == c.order[i]
	}
	if same {
		t.Fatal("different seeds produced the same trace")
	}
}

// TestFleetConcurrent is the race-detector workout: concurrent clients hammer
// the batcher, cache, limiter, and metrics at 1, 2, and 8 workers. Every
// request must either complete or be rejected by admission control, and with
// limiting off nothing may be rejected. CI runs this package under -race.
//
// The follow-up rule: every completed submit is followed by exactly one
// Predict, which either hits or counts a predict miss, so predicted plus
// missed follow-ups equals the request count at every worker count. The
// cache holds 8 of the 12 programs, so with concurrent clients another
// client's submits can evict a key between its Submit and its Predict; a
// miss is then correct behaviour, not an error. With one worker nothing
// interleaves, so every follow-up must hit.
func TestFleetConcurrent(t *testing.T) {
	f := perfvec.NewFoundation(perfvec.DefaultConfig())
	tr := NewTraffic(LoadConfig{Seed: 33, Programs: 12, MinInstrs: 1, MaxInstrs: 50, Requests: 120, Clients: 8}, f.Cfg.FeatDim)
	for _, workers := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "1worker", 2: "2workers", 8: "8workers"}[workers], func(t *testing.T) {
			s := newTestService(t, 3, func(c *Config) {
				c.CacheSize = 8 // smaller than the pool: eviction churn under load
				c.QueueDepth = tr.Requests()
			})
			st := tr.RunFleet(s, workers)
			if st.Rejected != 0 {
				t.Fatalf("%d requests rejected with admission control disabled", st.Rejected)
			}
			if st.Done != tr.Requests() {
				t.Fatalf("completed %d of %d requests", st.Done, tr.Requests())
			}
			m := s.Metrics()
			if got := m.CacheHits.Load() + m.CacheMisses.Load(); got != uint64(tr.Requests()) {
				t.Fatalf("hits+misses = %d, want %d", got, tr.Requests())
			}
			if got := st.Predicted + int(m.PredictMisses.Load()); got != tr.Requests() {
				t.Fatalf("predicted %d + missed %d follow-ups, want %d", st.Predicted, m.PredictMisses.Load(), tr.Requests())
			}
			if workers == 1 && st.Predicted != tr.Requests() {
				t.Fatalf("predicted %d of %d follow-ups with one worker", st.Predicted, tr.Requests())
			}
		})
	}
}

// TestServeThroughputSmoke is the CI throughput gate: over a trace of many
// small distinct programs, batched serving must beat the naive
// one-GEMM-per-request configuration by at least 2x requests/sec. The naive
// service is the same code with MaxBatchRows=1, BatchWindow=0 — only the
// batching differs.
func TestServeThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput smoke skipped in -short")
	}
	f := perfvec.DefaultConfig()
	tr := NewTraffic(LoadConfig{
		Seed: 55, Programs: 512, MinInstrs: 1, MaxInstrs: 2,
		Requests: 512, Clients: 8,
	}, f.FeatDim)

	// 32 concurrent clients of tiny programs: the regime batching exists
	// for, where per-pass fixed cost dominates per-row work.
	run := func(mutate func(*Config)) time.Duration {
		s := newTestService(t, 0, func(c *Config) {
			c.QueueDepth = tr.Requests()
			mutate(c)
		})
		defer s.Close()
		start := time.Now()
		st := tr.RunFleet(s, 32)
		el := time.Since(start)
		if st.Done != tr.Requests() {
			t.Fatalf("completed %d of %d requests", st.Done, tr.Requests())
		}
		return el
	}

	naive := func(c *Config) { c.MaxBatchRows = 1; c.BatchWindow = -1 }
	// MaxBatchRows below the in-flight row count so batches flush on the
	// size bound and keep every encode worker busy.
	batched := func(c *Config) { c.MaxBatchRows = 32; c.BatchWindow = 100 * time.Microsecond }

	// One run takes tens of milliseconds, so a single pair of runs on a
	// shared box is a coin flip. Gate on the median ratio of interleaved
	// pairs instead, alternating which configuration runs first, after one
	// warm-up pair that is logged but not counted.
	const pairs = 7
	ratios := make([]float64, 0, pairs)
	for i := -1; i < pairs; i++ {
		var n, b time.Duration
		if i%2 == 0 {
			n, b = run(naive), run(batched)
		} else {
			b, n = run(batched), run(naive)
		}
		t.Logf("pair %d: naive %v, batched %v: %.2fx", i, n, b, float64(n)/float64(b))
		if i >= 0 {
			ratios = append(ratios, float64(n)/float64(b))
		}
	}
	slices.Sort(ratios)
	speedup := ratios[pairs/2]
	t.Logf("median over %d pairs: %.2fx", pairs, speedup)
	if speedup < 2 {
		t.Fatalf("batched serving only %.2fx over naive (median of %d pairs), want >= 2x", speedup, pairs)
	}
}
