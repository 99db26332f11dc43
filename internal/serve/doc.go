// Package serve is the batched inference service around the foundation
// model: perfvec-serve. Program representations are
// microarchitecture-independent summaries (§III) that many clients —
// compilers, CI perf bots, design-space sweeps — query concurrently, and the
// packed GEMM engine only reaches its throughput on large batches, so the
// service's job is to turn a stream of small independent requests into a
// small number of large encoder passes while protecting the hot path from
// overload.
//
// # Service API
//
// perfvec-serve builds Config.Model and Config.Table from one model file
// (perfvec.LoadModel), so the served architecture, dimensions and table
// rows are the trained ones; no flag restates them.
//
// The core is Service, which is HTTP-independent (the handlers in http.go
// and the load-test harness in loadgen.go both drive it in-process):
//
//   - Submit(client, features, n, dst) hashes the program, consults the
//     representation cache, and on a miss routes the request through
//     admission control and the batcher; dst receives the d-dimensional
//     program representation and the returned key addresses it in later
//     Predict calls.
//   - Predict(key, uarch) is the cheap predictor pass: one dot product
//     between the cached representation and a learned microarchitecture
//     representation. Because representations are uarch-independent, one
//     cached entry serves every target microarchitecture a client asks
//     about — after the first Submit, sweeping thousands of uarchs costs
//     thousands of dot products and zero encoder work.
//
// When Config.Uarch carries a calibrated perfvec.UarchModel, the service
// also runs design-space sweeps:
//
//   - SweepSubmit(client, features, n, spec, rep, out) submits (or cache-hits)
//     the program exactly like Submit, then ranks every candidate of the
//     uarch.SpaceSpec-described space in one batched predictor GEMM
//     (perfvec.Sweeper), filling out with one predicted total-ns per
//     candidate — bit-for-bit the single-uarch predictions.
//   - SweepCached(key, spec, rep, out) is the amortized form: the program
//     representation comes from the cache (ErrNotCached when absent), so a
//     sweep over thousands of candidates costs zero encoder passes. The
//     sweeper embeds and packs a space once and reuses the packed panels
//     until a different spec arrives; specs are complete cache keys, so
//     clients alternating a handful of spaces pay the embedding once each.
//
// Over HTTP (Service.Handler): POST /v1/submit takes a little-endian binary
// body (uint32 n, uint32 featDim, then n*featDim float32 feature rows) and
// returns the key, optionally the representation (?rep=1) and predictions
// (?uarch=0,3,...); POST /v1/sweep?size=<K>&seed=<s>[&grid=1] takes either
// the same binary program body or an empty body with ?key=<hex> (a previous
// submit's key — the zero-encode path; 404 when the key is not cached) and
// streams {"key":..,"n":K,"ns":[..]} with one prediction per candidate
// (501 when the service has no uarch model, 400 on a size outside
// [1, MaxSweepConfigs]); adding &top=T (1 <= T <= size, else 400) asks the
// server to rank: the response carries "top":T and "idx":[..] — the indices
// of the T smallest predictions, ascending by (value, index) via a bounded
// max-heap — and "ns" then holds only those T values in the same order,
// cutting the response from O(size) to O(T) for fleet-scale spaces; GET /v1/predict?key=<hex>&uarch=<idx> predicts
// from the cache alone; GET /metrics exposes the counter set in Prometheus
// text format (sweeps add sweep_requests_total, sweep_configs_total, and
// sweep_rep_cache_hits_total — the last counts sweeps served without any
// encoder pass); GET /healthz is the liveness probe.
//
// # Batching window semantics
//
// The batcher coalesces concurrent cache-miss submissions into batched
// encoder passes (perfvec.Encoder.EncodePrograms32 or its int8 twin
// EncodeProgramsQ8). A batch opens when the first queued request is dequeued and
// closes when either bound is hit:
//
//   - size: the batch's total instruction rows reach Config.MaxBatchRows
//     (requests already queued are drained greedily first — "natural
//     batching": while one batch encodes, the next one fills);
//   - time: Config.BatchWindow elapses after the batch opened. The window
//     bounds the latency a lone request pays waiting for company; it is an
//     upper bound, not a delay — a full batch flushes immediately, and
//     BatchWindow=0 flushes as soon as the queue has no more requests to
//     drain.
//
// MaxBatchRows=1 (with BatchWindow=0) degenerates to the naive
// one-request-per-GEMM service and is the baseline the load-test suite
// measures batching against.
//
// Duplicate keys inside one batch are coalesced: one program is encoded and
// every duplicate request receives the same representation (counted by the
// coalesced metric).
//
// # Admission control
//
// Two gates protect the encode path, in order:
//
//   - a per-client token bucket (Config.Rate tokens/sec, Config.Burst burst)
//     rejects chatty clients before any work happens (HTTP 429 with
//     Retry-After);
//   - a bounded accept queue (Config.QueueDepth) rejects excess load when
//     the batcher cannot keep up (HTTP 503 with Retry-After). Submits never
//     block on a full queue — overload is signalled immediately.
//
// Cache hits bypass both the queue and the encoder entirely; only misses
// consume encode capacity.
//
// # Cache key
//
// The representation cache is a bounded LRU keyed by program hash:
// HashProgram folds the feature dimensionality, the row count, and the raw
// IEEE-754 bit pattern of every feature value through FNV-1a (word-wise).
// Two submissions hash equal exactly when their feature matrices are
// bit-identical, and since the encoder is deterministic the cached
// representation is bitwise the one a fresh encode would produce. Keys are
// stable across processes and restarts (no per-process seed) so clients may
// persist them.
//
// # Pooled-arena lifetime rule in request handling
//
// Encode passes run on pooled encoders (perfvec.Encoder); every tensor
// drawn during a pass comes from the encoder's arenas and is recycled by
// their Reset at the start of the encoder's next pass. Request handling therefore never retains anything
// produced inside a pass: representations leave the encoder only by being
// copied into per-request buffers (req.rep), into the cache's own entry
// storage, and finally into the caller's dst. The request's feature slice is
// borrowed in the other direction — it must stay valid (and unmodified)
// until Submit returns, which is why Submit blocks for the batch rather
// than returning a future. Request and batch objects themselves are pooled
// on free lists, so the steady-state serving path allocates nothing; the
// hotalloc analyzer guards the annotated hot functions and
// bench_budget.json gates the measured allocs/op.
//
// # Precision policy
//
// Config.Precision selects which of two serving tiers encode batches run on
// (perfvec-serve -precision f32|int8); the request wire format, cache
// layout, and admission path are identical under both:
//
//   - PrecisionF32 (default): the forward-only float32 engine
//     (perfvec.Encoder.EncodePrograms32) — packed f32 GEMM on pooled
//     Slab32 arenas, no tape bookkeeping, zero steady-state allocations.
//     Its output is bitwise identical to the training forward pass and to
//     perfvec.Foundation.ProgramRep, so everything the paragraphs above
//     promise about cached representations ("bitwise the one a fresh
//     encode would produce") holds unchanged.
//   - PrecisionInt8: the quantized engine
//     (perfvec.Encoder.EncodeProgramsQ8) — per-channel symmetric int8
//     weights quantized once at first use, dynamic per-row activation
//     quantization, u8 x i8 integer GEMMs with a fused dequantization
//     epilogue, and fast polynomial gate nonlinearities — on pooled
//     Slab32 arenas, zero steady-state allocations. The throughput
//     tier: >= 1.5x the f32 fast path on batched encodes (perfvec-bench
//     -budget gates the EncodeQ8/EncodeF32 ratio, measured interleaved in
//     one process). Its
//     contract is an epsilon, not bitwise equality with the f32 tier:
//     the int8 drift harness holds every representation element within
//     5e-2 of the f64 oracle, normalized by the representation's dynamic
//     range (quantization noise scales with the range, not per-element
//     magnitude). Within the tier the engine is still deterministic and
//     batch-invariant, so cache semantics are unchanged: a cached int8
//     representation is bitwise the one a fresh int8 encode would produce.
//
// Both tiers are held against the float64 oracle
// (perfvec.Foundation.EncodePrograms64), which is a reference, not a
// serving tier: the drift harnesses in internal/perfvec pin the f32 path
// within 1e-4 relative error element-wise and the int8 tier within 5e-2
// range-normalized, and internal/experiments' TestTierErrorLedger holds
// f32 prediction error to the oracle's within 1e-6 and int8's within two
// points of f32's. f64 serving was retired because f32 matched it.
//
// The tiers and the oracle run one inference graph (internal/nn/infer.go),
// written once and instantiated per backend, and one batch encode loop, so
// they differ only in arithmetic, never in wiring. The oracle and quantized
// images of the model are built lazily on first use and assume frozen
// weights — the assumption serving already makes everywhere.
package serve
