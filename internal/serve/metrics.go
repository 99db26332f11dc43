package serve

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics is the service's counter set: plain atomics bumped on the hot path
// (an atomic add, nothing more) and exposed in Prometheus text format by
// WriteTo / GET /metrics. Field reads are exact the instant they are taken
// but the set is not snapshotted atomically.
type Metrics struct {
	// Submit path.
	Submits       atomic.Uint64 // admitted submissions (past the rate limit)
	CacheHits     atomic.Uint64 // submissions served straight from the LRU
	CacheMisses   atomic.Uint64 // submissions that needed an encode
	RejectedRate  atomic.Uint64 // 429s: per-client token bucket empty
	RejectedQueue atomic.Uint64 // 503s: bounded accept queue full

	// Batcher.
	Batches     atomic.Uint64 // coalesced encoder passes dispatched
	BatchedRows atomic.Uint64 // instruction rows across all batches
	Coalesced   atomic.Uint64 // duplicate-key requests folded into another encode

	// Predict path.
	Predicts      atomic.Uint64 // predictor passes served
	PredictMisses atomic.Uint64 // predicts whose key was not cached

	// Sweep path.
	SweepRequests     atomic.Uint64 // design-space sweep requests received
	SweepConfigs      atomic.Uint64 // candidate predictions served across all sweeps
	SweepRepCacheHits atomic.Uint64 // sweeps whose program representation came from the cache (zero encodes)
}

// metricHelp pairs each exposed series with its help string, in exposition
// order.
var metricHelp = []struct{ name, help string }{
	{"submits_total", "Admitted program submissions."},
	{"cache_hits_total", "Submissions served from the representation cache."},
	{"cache_misses_total", "Submissions that required an encoder pass."},
	{"rejected_rate_total", "Submissions rejected by per-client rate limits (429)."},
	{"rejected_queue_total", "Submissions rejected by the bounded accept queue (503)."},
	{"batches_total", "Coalesced encoder batches dispatched."},
	{"batched_rows_total", "Instruction rows encoded across all batches."},
	{"coalesced_total", "Duplicate-key requests folded into another request's encode."},
	{"predicts_total", "Predictor passes served."},
	{"predict_misses_total", "Predict requests whose key was not cached."},
	{"sweep_requests_total", "Design-space sweep requests received."},
	{"sweep_configs_total", "Candidate predictions served across all sweeps."},
	{"sweep_rep_cache_hits_total", "Sweeps served from a cached program representation (zero encoder passes)."},
}

// WriteTo writes the counters in Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	vals := []uint64{
		m.Submits.Load(), m.CacheHits.Load(), m.CacheMisses.Load(),
		m.RejectedRate.Load(), m.RejectedQueue.Load(),
		m.Batches.Load(), m.BatchedRows.Load(), m.Coalesced.Load(),
		m.Predicts.Load(), m.PredictMisses.Load(),
		m.SweepRequests.Load(), m.SweepConfigs.Load(), m.SweepRepCacheHits.Load(),
	}
	var total int64
	for i, mh := range metricHelp {
		n, err := fmt.Fprintf(w, "# HELP perfvec_serve_%s %s\n# TYPE perfvec_serve_%s counter\nperfvec_serve_%s %d\n",
			mh.name, mh.help, mh.name, mh.name, vals[i])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
