package serve

import (
	"fmt"
	"math/rand/v2"
	"sync"
)

// lockedSource makes a rand.Source safe for concurrent use; the fleet's
// workers share one seeded PCG through it, so a run consumes one well-defined
// random stream no matter how the goroutines interleave.
type lockedSource struct {
	mu sync.Mutex
	s  rand.Source
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Uint64()
}

// LoadConfig parameterizes a deterministic traffic trace.
type LoadConfig struct {
	// Seed seeds the PCG that generates the whole trace. Same seed, same
	// config => identical programs, identical request order, identical
	// client assignment.
	Seed uint64
	// Programs is the size of the distinct-program pool requests draw from;
	// Requests > Programs makes cache hits inevitable.
	Programs int
	// MinInstrs and MaxInstrs bound each program's instruction count
	// (uniform draw).
	MinInstrs, MaxInstrs int
	// Requests is the trace length.
	Requests int
	// Clients is how many distinct client identities the trace spreads
	// requests over (round-robin-free: drawn from the PCG).
	Clients int
}

// Traffic is a fully materialized deterministic trace: the program pool, the
// request order, and the client assignment are all precomputed from the seed,
// so every consumer — the sequential Replay, the concurrent fleet, the
// benchmarks — sees the same requests.
type Traffic struct {
	cfg     LoadConfig
	featDim int
	feats   [][]float32 // program pool: [Programs][n_i * featDim]
	instrs  []int       // program pool: instruction counts
	order   []int       // request -> program index
	client  []string    // request -> client id
	misses  int         // first-occurrence count over order (sequential-replay oracle)
}

// NewTraffic materializes a trace for programs of featDim features per
// instruction.
func NewTraffic(cfg LoadConfig, featDim int) *Traffic {
	if cfg.Programs < 1 || cfg.Requests < 0 || cfg.MinInstrs < 1 || cfg.MaxInstrs < cfg.MinInstrs || cfg.Clients < 1 {
		panic(fmt.Sprintf("serve: bad LoadConfig %+v", cfg))
	}
	rng := rand.New(&lockedSource{s: rand.NewPCG(cfg.Seed, cfg.Seed^0x9E3779B97F4A7C15)})
	t := &Traffic{
		cfg:     cfg,
		featDim: featDim,
		feats:   make([][]float32, cfg.Programs),
		instrs:  make([]int, cfg.Programs),
		order:   make([]int, cfg.Requests),
		client:  make([]string, cfg.Requests),
	}
	for p := range t.feats {
		n := cfg.MinInstrs + rng.IntN(cfg.MaxInstrs-cfg.MinInstrs+1)
		t.instrs[p] = n
		fs := make([]float32, n*featDim)
		for i := range fs {
			fs[i] = float32(rng.NormFloat64())
		}
		t.feats[p] = fs
	}
	seen := make(map[int]bool, cfg.Programs)
	for i := range t.order {
		p := rng.IntN(cfg.Programs)
		t.order[i] = p
		t.client[i] = fmt.Sprintf("client-%d", rng.IntN(cfg.Clients))
		if !seen[p] {
			seen[p] = true
			t.misses++
		}
	}
	return t
}

// Requests returns the trace length.
func (t *Traffic) Requests() int { return len(t.order) }

// Program returns request i's feature matrix and instruction count.
func (t *Traffic) Program(i int) ([]float32, int) {
	p := t.order[i]
	return t.feats[p], t.instrs[p]
}

// Client returns request i's client identity.
func (t *Traffic) Client(i int) string { return t.client[i] }

// ExpectedMisses is the sequential-replay oracle: with a cache at least
// Programs entries big and requests served one at a time, exactly the first
// occurrence of each program misses.
func (t *Traffic) ExpectedMisses() int { return t.misses }

// ReplayStats summarizes a sequential replay.
type ReplayStats struct {
	Hits, Misses int
	Keys         []uint64 // per-request cache keys, in trace order
}

// Replay drives the trace through the service one request at a time and
// tallies hits and misses from the service's own counters. Sequential
// service makes the hit/miss split exactly reproducible: same seed, same
// counts, every run.
func (t *Traffic) Replay(s *Service) (ReplayStats, error) {
	m := s.Metrics()
	h0, m0 := m.CacheHits.Load(), m.CacheMisses.Load()
	st := ReplayStats{Keys: make([]uint64, len(t.order))}
	dst := make([]float32, s.f.Cfg.RepDim)
	for i := range t.order {
		fs, n := t.Program(i)
		key, err := s.Submit(t.Client(i), fs, n, dst)
		if err != nil {
			return st, fmt.Errorf("request %d: %w", i, err)
		}
		st.Keys[i] = key
	}
	st.Hits = int(m.CacheHits.Load() - h0)
	st.Misses = int(m.CacheMisses.Load() - m0)
	return st, nil
}

// FleetStats summarizes a concurrent fleet run.
type FleetStats struct {
	Done      int // requests that completed with a representation
	Rejected  int // 429s and 503s
	Predicted int // follow-up Predict calls that hit
}

// RunFleet drives the trace with `workers` concurrent in-process clients;
// worker w serves requests w, w+workers, w+2*workers, ... so the request
// *set* is deterministic even though arrival interleaving is not. Each
// completed submit is followed by one Predict per microarchitecture drawn
// from the shared locked PCG (when the service has a table). Rate- and
// queue-rejected requests are counted, not retried.
func (t *Traffic) RunFleet(s *Service, workers int) FleetStats {
	if workers < 1 {
		workers = 1
	}
	rng := rand.New(&lockedSource{s: rand.NewPCG(t.cfg.Seed^0xF1EE7, t.cfg.Seed)})
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total FleetStats
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var st FleetStats
			dst := make([]float32, s.f.Cfg.RepDim)
			for i := w; i < len(t.order); i += workers {
				fs, n := t.Program(i)
				key, err := s.Submit(t.Client(i), fs, n, dst)
				if err != nil {
					st.Rejected++
					continue
				}
				st.Done++
				if k := s.Uarchs(); k > 0 {
					if _, ok := s.Predict(key, rng.IntN(k)); ok {
						st.Predicted++
					}
				}
			}
			mu.Lock()
			total.Done += st.Done
			total.Rejected += st.Rejected
			total.Predicted += st.Predicted
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return total
}
