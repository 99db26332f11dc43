package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/perfvec"
	"repro/internal/sim"
	"repro/internal/uarch"
)

// Sentinel errors returned by Submit. Sentinels (not wrapped dynamic errors)
// keep the rejection paths allocation-free.
var (
	// ErrBadRequest means the submission was malformed (non-positive length
	// or a feature slice that does not match n*FeatDim).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrRateLimited means the client's token bucket was empty (HTTP 429).
	ErrRateLimited = errors.New("serve: rate limited")
	// ErrOverloaded means the bounded accept queue was full (HTTP 503).
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrClosed means the service has been closed.
	ErrClosed = errors.New("serve: closed")
	// ErrNoSweep means the service was built without a microarchitecture
	// model (Config.Uarch), so /v1/sweep is not available (HTTP 501).
	ErrNoSweep = errors.New("serve: sweeps not configured")
	// ErrNotCached means a key-only sweep referenced a program whose
	// representation is no longer cached (HTTP 404): resubmit the program.
	ErrNotCached = errors.New("serve: program not cached")
)

// errOverloaded is what the batcher returns internally; Submit translates it
// so the metric is bumped in exactly one place.
var errOverloaded = ErrOverloaded

// Config parameterizes a Service. The zero value of every field selects a
// sensible default (see DefaultConfig); Model is the only required field.
type Config struct {
	// Model is the trained (or freshly initialized) foundation model whose
	// encoder serves submissions. Required.
	Model *perfvec.Foundation
	// Table holds the learned microarchitecture representations Predict dots
	// cached program representations against. Optional: without it Submit
	// still works but Predict always misses.
	Table *perfvec.Table
	// Uarch is the calibrated microarchitecture representation model
	// /v1/sweep embeds candidate spaces with. Optional: without it sweeps
	// return ErrNoSweep.
	Uarch *perfvec.UarchModel
	// MaxSweepConfigs bounds the candidate-space size one sweep may request.
	// Default 8192.
	MaxSweepConfigs int

	// CacheSize bounds the representation LRU (entries). Default 4096.
	CacheSize int
	// BatchWindow is the time bound on an open batch: the longest a lone
	// request waits for company. 0 means flush as soon as the queue drains.
	// Default 200µs.
	BatchWindow time.Duration
	// MaxBatchRows is the size bound on a batch, in instruction rows.
	// MaxBatchRows=1 (with BatchWindow=0) is the naive one-request-per-GEMM
	// degenerate service. Default 1024.
	MaxBatchRows int
	// QueueDepth bounds the accept queue; a full queue rejects with
	// ErrOverloaded. Default 256.
	QueueDepth int
	// EncodeWorkers is the number of concurrent encode workers (each holding
	// a pooled encoder while running a batch). Default 2.
	EncodeWorkers int

	// Precision selects the numeric engine batches run on, one of two
	// serving tiers: PrecisionF32 (the default) is the forward-only float32
	// fast path, PrecisionInt8 the quantized u8 x i8 throughput tier
	// (epsilon-bounded against the float64 oracle, not bitwise). The oracle
	// itself is an offline reference, not a serving tier. See the
	// Precision doc.
	Precision Precision

	// Rate and Burst configure the per-client token buckets. Rate<=0
	// disables rate limiting. Default: disabled.
	Rate  float64
	Burst float64
	// Clock overrides the limiter's clock; nil means time.Now. Tests inject
	// a virtual clock here.
	Clock func() time.Time
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.MaxBatchRows == 0 {
		c.MaxBatchRows = 1024
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.EncodeWorkers == 0 {
		c.EncodeWorkers = 2
	}
	if c.MaxSweepConfigs == 0 {
		c.MaxSweepConfigs = 8192
	}
	return c
}

// Service is the batched inference service: cache in front, admission
// control at the door, batcher behind. Safe for concurrent use; see the
// package comment for the full request lifecycle.
type Service struct {
	cfg     Config
	f       *perfvec.Foundation
	table   *perfvec.Table
	cache   *RepCache
	limiter *Limiter
	batcher *batcher
	m       Metrics

	// Sweep state: the embedded candidate space, shared by every sweep until
	// a request names a different spec. Readers sweep under the read lock;
	// embedding a new space takes the write lock because SetSpace recycles
	// the candidate matrix in place.
	sweepMu    sync.RWMutex
	sweeper    *perfvec.Sweeper
	sweepSpec  uarch.SpaceSpec
	sweepReady bool

	closeMu sync.RWMutex // held shared across in-flight encodes; Close excludes them
	closed  bool
}

// NewService builds and starts a service (its collector and encode workers
// run until Close).
func NewService(cfg Config) (*Service, error) {
	if cfg.Model == nil {
		return nil, errors.New("serve: Config.Model is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Table != nil && cfg.Table.M.Cols() != cfg.Model.Cfg.RepDim {
		return nil, fmt.Errorf("serve: table rep dim %d != model rep dim %d", cfg.Table.M.Cols(), cfg.Model.Cfg.RepDim)
	}
	if cfg.Uarch != nil {
		if cfg.Uarch.RepDim != cfg.Model.Cfg.RepDim {
			return nil, fmt.Errorf("serve: uarch model rep dim %d != model rep dim %d", cfg.Uarch.RepDim, cfg.Model.Cfg.RepDim)
		}
		if !cfg.Uarch.Calibrated() {
			return nil, errors.New("serve: Config.Uarch must be calibrated (or trained) before serving sweeps")
		}
	}
	s := &Service{
		cfg:     cfg,
		f:       cfg.Model,
		table:   cfg.Table,
		cache:   NewRepCache(cfg.CacheSize, cfg.Model.Cfg.RepDim),
		limiter: NewLimiter(cfg.Rate, cfg.Burst, cfg.Clock),
	}
	s.batcher = newBatcher(s.f, s.cache, &s.m, cfg.BatchWindow, cfg.MaxBatchRows, cfg.QueueDepth, cfg.EncodeWorkers, cfg.Precision)
	if cfg.Uarch != nil {
		s.sweeper = perfvec.NewSweeper(s.f, cfg.Uarch)
	}
	return s, nil
}

// Close drains in-flight submissions and stops the batcher. Submits arriving
// after Close return ErrClosed.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	s.batcher.close()
}

// Submit serves one program submission: features is the n x FeatDim feature
// matrix (row-major), dst (length >= RepDim) receives the program
// representation, and the returned key addresses the cached representation
// in Predict. Cache hits return immediately; misses block until the
// coalesced batch carrying them completes. Under PrecisionF32 (the default)
// the result is bitwise identical to Foundation.ProgramRep on the same
// features regardless of what else is in the batch; under PrecisionInt8 it is
// the quantized engine's representation, equally
// batch-composition-independent.
//
//perfvec:hotpath
func (s *Service) Submit(client string, features []float32, n int, dst []float32) (uint64, error) {
	key, _, err := s.submit(client, features, n, dst)
	return key, err
}

// submit is the shared submission core behind Submit and SweepSubmit; hit
// reports whether the representation came straight from the cache (no
// encoder pass).
//
//perfvec:hotpath
func (s *Service) submit(client string, features []float32, n int, dst []float32) (uint64, bool, error) {
	fd := s.f.Cfg.FeatDim
	if n < 1 || len(features) != n*fd || len(dst) < s.f.Cfg.RepDim {
		return 0, false, ErrBadRequest
	}
	if !s.limiter.Allow(client) {
		s.m.RejectedRate.Add(1)
		return 0, false, ErrRateLimited
	}
	s.m.Submits.Add(1)
	key := HashProgram(features, fd)
	if s.cache.Get(key, dst) {
		s.m.CacheHits.Add(1)
		return key, true, nil
	}
	s.m.CacheMisses.Add(1)
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return 0, false, ErrClosed
	}
	err := s.batcher.encode(features, n, key, dst)
	s.closeMu.RUnlock()
	if err != nil {
		s.m.RejectedQueue.Add(1)
		return 0, false, err
	}
	return key, false, nil
}

// Predict returns the predicted wall-clock nanoseconds of the cached program
// key on microarchitecture uarch — one dot product, no encoder work. ok is
// false when the key is not cached (the client must resubmit the program) or
// uarch is out of range. Bitwise identical to Foundation.PredictTotalNs on
// the same program and table row.
//
//perfvec:hotpath
func (s *Service) Predict(key uint64, uarch int) (float64, bool) {
	if s.table == nil || uarch < 0 || uarch >= s.table.K() {
		return 0, false
	}
	s.m.Predicts.Add(1)
	dot, ok := s.cache.Dot(key, s.table.Rep(uarch))
	if !ok {
		s.m.PredictMisses.Add(1)
		return 0, false
	}
	return dot / float64(s.f.Cfg.TargetScale) / sim.TickPerNs, true
}

// SweepSubmit serves one design-space sweep: the program (features, n rows)
// is submitted through the normal path — rate limit, representation cache,
// coalesced encode on a miss — and its representation is then evaluated
// against the candidate space spec describes in one batched predictor GEMM.
// rep (length >= RepDim) receives the program representation; out (length >=
// spec.Size) receives the per-candidate predicted nanoseconds, k of them
// (k <= spec.Size after deduplication). A cached program costs zero encoder
// passes: the sweep is then pure predictor work.
func (s *Service) SweepSubmit(client string, features []float32, n int, spec uarch.SpaceSpec, rep []float32, out []float64) (key uint64, k int, err error) {
	if s.sweeper == nil {
		return 0, 0, ErrNoSweep
	}
	s.m.SweepRequests.Add(1)
	key, hit, err := s.submit(client, features, n, rep)
	if err != nil {
		return 0, 0, err
	}
	if hit {
		s.m.SweepRepCacheHits.Add(1)
	}
	k, err = s.sweepRep(spec, rep, out)
	if err != nil {
		return 0, 0, err
	}
	s.m.SweepConfigs.Add(uint64(k))
	return key, k, nil
}

// SweepCached is the key-only sweep: the program is addressed by the hash a
// previous Submit returned, so a hit touches no encoder state at all. rep is
// scratch (length >= RepDim) receiving the cached representation; out and k
// are as in SweepSubmit. Returns ErrNotCached when the key has been evicted.
func (s *Service) SweepCached(key uint64, spec uarch.SpaceSpec, rep []float32, out []float64) (int, error) {
	if s.sweeper == nil {
		return 0, ErrNoSweep
	}
	s.m.SweepRequests.Add(1)
	if len(rep) < s.f.Cfg.RepDim {
		return 0, ErrBadRequest
	}
	if !s.cache.Get(key, rep) {
		return 0, ErrNotCached
	}
	s.m.SweepRepCacheHits.Add(1)
	k, err := s.sweepRep(spec, rep, out)
	if err != nil {
		return 0, err
	}
	s.m.SweepConfigs.Add(uint64(k))
	return k, nil
}

// sweepRep evaluates rep against the candidate space spec describes. Sweeps
// against the currently embedded spec run concurrently under the read lock;
// a request naming a different spec takes the write lock, generates the
// space, and embeds it in one batched uarch-model forward. The loop re-checks
// under the read lock after embedding because another writer may have swapped
// the space again in between.
func (s *Service) sweepRep(spec uarch.SpaceSpec, rep []float32, out []float64) (int, error) {
	if spec.Size < 1 || spec.Size > s.cfg.MaxSweepConfigs || len(out) < spec.Size {
		return 0, ErrBadRequest
	}
	for {
		s.sweepMu.RLock()
		if s.sweepReady && s.sweepSpec == spec {
			k := s.sweeper.K()
			s.sweeper.Sweep(rep, out[:k])
			s.sweepMu.RUnlock()
			return k, nil
		}
		s.sweepMu.RUnlock()

		s.sweepMu.Lock()
		if !s.sweepReady || s.sweepSpec != spec {
			s.sweeper.SetSpace(uarch.GenerateSpace(spec))
			s.sweepSpec, s.sweepReady = spec, true
		}
		s.sweepMu.Unlock()
	}
}

// SweepSpace returns the currently embedded candidate spec and its size
// (zero value and 0 before the first sweep).
func (s *Service) SweepSpace() (uarch.SpaceSpec, int) {
	s.sweepMu.RLock()
	defer s.sweepMu.RUnlock()
	if !s.sweepReady {
		return uarch.SpaceSpec{}, 0
	}
	return s.sweepSpec, s.sweeper.K()
}

// Uarchs returns how many microarchitectures Predict can target (0 without a
// table).
func (s *Service) Uarchs() int {
	if s.table == nil {
		return 0
	}
	return s.table.K()
}

// Metrics returns the service's live counter set.
func (s *Service) Metrics() *Metrics { return &s.m }

// Cache returns the representation cache (exposed for the load-test harness
// and the operational flush knob).
func (s *Service) Cache() *RepCache { return s.cache }

// Model returns the foundation model the service encodes with.
func (s *Service) Model() *perfvec.Foundation { return s.f }

// Precision returns the numeric engine the service's batches run on.
func (s *Service) Precision() Precision { return s.cfg.Precision }

// PoolStats reports how many request and batch objects the batcher has ever
// built; a steady state that keeps building objects is a pooling regression.
func (s *Service) PoolStats() (reqs, batches int) { return s.batcher.poolStats() }

// RetryAfter is the limiter's suggested backoff for 429 responses.
func (s *Service) RetryAfter() time.Duration { return s.limiter.RetryAfter() }
