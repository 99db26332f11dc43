package benchsuite

import (
	"testing"
	"time"

	"repro/internal/perfvec"
	"repro/internal/serve"
)

// serveTraffic is the fixed trace every serving benchmark replays: many
// small distinct programs from 32 concurrent clients — the coalescing
// regime the service exists for.
func serveTraffic() *serve.Traffic {
	return serve.NewTraffic(serve.LoadConfig{
		Seed: 99, Programs: 128, MinInstrs: 1, MaxInstrs: 2,
		Requests: 128, Clients: 8,
	}, perfvec.DefaultConfig().FeatDim)
}

// newServeService builds a started service over a fresh default foundation
// model; mutate tweaks the config before start.
func newServeService(b *testing.B, mutate func(*serve.Config)) *serve.Service {
	b.Helper()
	cfg := serve.Config{
		Model:      perfvec.NewFoundation(perfvec.DefaultConfig()),
		Table:      perfvec.NewTable(8, perfvec.DefaultConfig().RepDim, 11),
		QueueDepth: 1024,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := serve.NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// runServeFleet measures fleet throughput over the fixed trace: the cache is
// flushed before every iteration so each one re-runs the full miss path
// through the batcher.
func runServeFleet(b *testing.B, s *serve.Service) {
	tr := serveTraffic()
	tr.RunFleet(s, 32) // warm the pools and the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cache().Flush()
		st := tr.RunFleet(s, 32)
		if st.Done != tr.Requests() {
			b.Fatalf("completed %d of %d requests", st.Done, tr.Requests())
		}
	}
	b.ReportMetric(float64(tr.Requests())*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// Serve measures batched serving: coalesced encoder passes bounded at 32
// rows / 100µs, 32 concurrent clients.
func Serve(b *testing.B) {
	s := newServeService(b, func(c *serve.Config) {
		c.MaxBatchRows = 32
		c.BatchWindow = 100 * time.Microsecond
	})
	defer s.Close()
	runServeFleet(b, s)
}

// ServeNaive measures the degenerate one-request-per-GEMM configuration
// (MaxBatchRows=1, no window) over the identical trace: the baseline the
// batched number is compared against.
func ServeNaive(b *testing.B) {
	s := newServeService(b, func(c *serve.Config) {
		c.MaxBatchRows = 1
		c.BatchWindow = -1
	})
	defer s.Close()
	runServeFleet(b, s)
}

// ServeSubmitHit measures the cache-hit submit path — hash, LRU lookup, rep
// copy — which must stay allocation-free (bench_budget.json pins 0).
func ServeSubmitHit(b *testing.B) {
	s := newServeService(b, nil)
	defer s.Close()
	tr := serveTraffic()
	fs, n := tr.Program(0)
	dst := make([]float32, perfvec.DefaultConfig().RepDim)
	if _, err := s.Submit("bench", fs, n, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit("bench", fs, n, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// ServePredict measures the cached predictor pass — one locked dot product —
// which must stay allocation-free (bench_budget.json pins 0).
func ServePredict(b *testing.B) {
	s := newServeService(b, nil)
	defer s.Close()
	tr := serveTraffic()
	fs, n := tr.Program(0)
	dst := make([]float32, perfvec.DefaultConfig().RepDim)
	key, err := s.Submit("bench", fs, n, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Predict(key, i%8); !ok {
			b.Fatal("predict missed")
		}
	}
}
