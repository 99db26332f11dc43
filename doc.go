// Package repro is a from-scratch Go reproduction of "Learning Generalizable
// Program and Architecture Representations for Performance Modeling"
// (PerfVec — Li, Flynn, Hoisie; SC 2024, arXiv:2310.16792).
//
// The library lives under internal/: the PerfVec core (internal/perfvec),
// its substrates (ISA, emulator, timing simulator, feature extraction,
// benchmark suite, neural-network stack), the DSE case study
// (internal/dse), and the evaluation harness (internal/experiments).
// Executables live under cmd/, runnable examples under examples/, and
// bench_test.go in this directory regenerates every table and figure of the
// paper's evaluation as a testing.B benchmark.
//
// The module path is "repro" (go.mod at the repo root); the tier-1 check is
//
//	go build ./... && go test ./...
//
// The numeric substrate (internal/tensor) is a packed, cache-blocked,
// worker-pooled GEMM engine in the BLIS style. All three transpose variants
// (NN, NT, TN) route through one packed kernel and differ only in pack
// orientation:
//
//   - Packing layout: A is packed into MR-row strips (layout
//     aPack[strip*MR*kc + l*MR + r], rows past m zero-filled), B into
//     NR-column strips (bPack[strip*NR*kc + l*NR + c], columns past n
//     zero-filled), so the micro-kernel streams purely contiguous panels.
//   - Blocking parameters: KC-deep reduction blocks (a packed KC x NR B
//     strip is half an L1d, and the C tile round-trips memory once per KC
//     block), MC-tall row blocks (a packed MC x KC A block sits in L2), and
//     NC-wide column panels bounding each worker's packed-B working set.
//     Workers partition the output's NR-column strips (or its MR-row
//     strips, when the columns cannot feed every worker and the rows can)
//     and share the packed A block read-only; column-partitioned workers
//     pack the B panels for their own column range.
//   - Micro-kernel contract: gemmMicro6x16 (gemm_amd64.s) loads the 6x16 C
//     tile into twelve YMM accumulators, performs kc fused-multiply-add
//     steps (two B vectors, six A broadcasts each) with software prefetch
//     of the upcoming panels, and stores the tile back once — per element a
//     pure FMA chain in ascending k order. The portable kernel
//     (gemm_generic.go) applies the identical per-element operation using
//     an exactly emulated single-rounding FMA (round-to-odd fix for the
//     float64 double rounding), so assembly and portable results are
//     bitwise identical, as are serial and parallel runs at any worker
//     count.
//   - Packed-buffer lifetime: pack panels come from a free-list pool
//     (packPool) and are owned by the engine only within a single GEMM
//     call — returned before the call completes, never retained — so the
//     hot path stays zero-alloc without pinning panel memory. A product
//     small enough for a Slab32's packing scratch (every GEMM of the
//     default encoder's row ranges) runs serially on the slab's goroutine
//     with its panels in that scratch, taking no pool buffer and making no
//     dispatch.
//
// Kernels are leading-dimension-parameterized so fused ops (MatMulBTCat for
// recurrent cells, MatMulBTCols for attention heads) run on column
// sub-views without copies. Data-parallel ops dispatch to a persistent
// worker pool sized to GOMAXPROCS, and perfvec.Trainer shards minibatches
// across gradient workers with deterministic reduction, so both the kernel
// layer and the training loop scale with cores.
//
// Autodiff runs on a typed op-record tape: each differentiable op appends a
// fixed-size opRecord (op-kind enum, operand/output/saved-activation tensor
// refs, small scalar args) to the Tape, and Backward dispatches the records
// in reverse through a static per-kind VJP table — there are no backward
// closures anywhere. Records, like pooled tensors, must not outlive their
// tape's Reset: Reset drops the records (retaining capacity) in the same
// breath as it recycles the arena. The VJP bodies replay the former closure
// arithmetic verbatim, so gradients are bitwise identical to the closure
// tape's and replaying Backward off the same records is bit-deterministic.
//
// The training hot path performs ZERO heap allocations at steady state
// (enforced by testing.AllocsPerRun == 0 plus arena-miss and record-growth
// counters): op outputs, gradient buffers, and scratch tensors come from a
// per-tape free-list arena (tensor.Arena) that Tape.Reset recycles each
// minibatch; per-timestep tensor slices come from the arena's slab pool
// (Tape.Tensors); op records reuse the tape's retained slice; and every
// parallel loop — op forwards, VJPs, the GEMM wrappers, Adam's update —
// dispatches as a typed kernel with a by-value argument block
// (tensor.ParallelKernel) instead of an escaping closure. Evaluation pools
// too: Trainer.Loss runs each batch on a pooled perfvec.Encoder through the
// float32 inference graph, bitwise equal to the tape loss. Recurrent cells
// run on fused gate kernels (LSTMGates, GRUGates, GateCombine) that collapse
// each timestep's post-GEMM work into one or two tape records, the
// transformer's attention-score scaling and row softmax fuse into one
// AttentionSoftmax record, and Linear layers apply bias and activation as
// in-place epilogues on the GEMM output; all of these are bitwise-identical
// to the unfused compositions (asserted by tests), so fusion never perturbs
// a loss curve or a serialized model. The trainer's validation loss and its
// shard-gradient reduction both parallelize across the worker pool with
// bitwise-invariant results (element ranges outer, fixed worker order
// inner, reduced through the typed kGradReduce kernel in worker-slot
// groups), minibatch shards go to persistent per-worker goroutines, and the
// worker pool resizes when GOMAXPROCS changes after first use; a typed
// kernel (tensor.ParallelKernel) is the only way work reaches that pool.
// Inference pools the same way: InstructionReps, ProgramRep, and the batch
// encodes run one encode loop on the Foundation's pooled encoders
// (perfvec.Encoder), whose arenas are recycled per row range. One dispatch
// per call runs a claim loop on every worker (the caller's encoder runs
// one, the others borrow theirs from the pool): each loop takes ranges of
// up to 128 instruction rows from a shared cursor, hands the graph each
// range's instruction rows once (the first layer projects every
// instruction once, not once per window), and either parks the rows in a
// bounded ring that is summed per program strictly in row order or, for
// InstructionReps, writes each row out, so its output is bitwise the same
// at any GOMAXPROCS.
// cmd/perfvec-bench records MatMul/Batch/TrainStep in BENCH_N.json (with
// -tape-histogram printing one step's op-record kind histogram for graph
// profiling), and CI fails any change whose training step or GEMM exceeds
// the allocation budgets in bench_budget.json (TrainStep 10 allocs/op — the
// steady-state step measures 0 — and MatMul 0: pack panels come from the
// pool and the output tensor from a reused arena tape).
//
// Each data-path job has one collection path. Training data is
// materialized: perfvec.CollectAll traces each program once, featurizes it,
// and simulates the trace on every sampled configuration (the training
// corpus is held whole anyway), and Dataset.Batch shards window assembly
// across GOMAXPROCS workers in a fixed shard order, so batches are bitwise
// identical to the serial path. Evaluation is materialized too:
// perfvec-eval collects each program with perfvec.CollectProgramData and
// scores it with perfvec.ProgramErrors. Inspection streams:
// emu.Stepper executes programs one pulled instruction at a time
// (trace.Stream), and perfvec-trace featurizes each record with
// features.Extractor as it arrives, building its report in one pass.
//
// A trained model is one self-describing file: perfvec.SaveModel writes
// the Config, the microarchitectures the table's rows stand for, and the
// checksummed parameters, and perfvec.LoadModel rebuilds the model from
// them, rejecting any file it cannot trust before allocating the model.
// perfvec-eval and perfvec-serve take every dimension from the file.
//
// # Invariants and static enforcement
//
// The performance invariants above are not only measured — they are enforced
// at compile time by perfvec-vet (cmd/perfvec-vet), a custom go/analysis
// suite built on the standard library (internal/analysis) that loads every
// package itself, and is a required CI step. Four
// analyzers cover the four invariant classes:
//
//   - arenalife: a *tensor.Tensor or []*tensor.Tensor slab produced through
//     a tape or arena is step-lifetime — valid only until the owning
//     Tape.Reset. The analyzer flows tape-derived values through each
//     function and flags stores that can outlive the step: package-level
//     vars, struct fields, channel sends, goroutine captures. Struct types
//     that are themselves reset with the tape are marked
//     //perfvec:tapescoped.
//   - hotalloc: functions annotated //perfvec:hotpath (Trainer.Step,
//     Trainer.Loss, the GEMM engine, every VJP body, the batch encoders,
//     Dataset.Batch) must contain no heap-allocating construct:
//     make/new/append, slice/map literals, address-taken composite
//     literals, capturing closures, go statements, interface boxing.
//     Every new hot path must carry the annotation so the analyzer guards
//     it from its first commit.
//   - kernelcapture: every value used as a tensor.Kernel must be a named
//     top-level function — func literals and method values heap-allocate
//     per dispatch, the exact pre-PR-4 bug shape.
//   - packlife: pack-pool buffers acquired in the GEMM engine must be
//     returned to the pool on every path out of the acquiring function and
//     must never escape it.
//
// A deliberate exception is waived one line at a time with
// `//perfvec:allow <analyzer> -- justification`; the justification is
// mandatory. Each analyzer has golden-fixture tests under
// internal/analysis/<name>/testdata driven by the x/tools-style
// analysistest harness in internal/analysis/analysistest.
//
// # Serving
//
// internal/serve (cmd/perfvec-serve) is the batched inference service over
// the pooled encoders: concurrent program submissions are coalesced into
// batched encoder passes through perfvec.Encoder (the encoder is row-wise
// batch-invariant, so a coalesced result is bitwise the single-request
// one), representations land in a bounded LRU keyed by content hash (reps
// are uarch-independent — one entry answers Predict for every target
// microarchitecture at the cost of a dot product), and the hot path is
// protected by per-client token buckets plus a bounded accept queue.
// Request/batch objects, rep buffers, and encoders are all pooled, so the
// steady-state serving path allocates nothing: hotalloc guards the
// annotated handlers, bench_budget.json pins ServeSubmitHit and
// ServePredict at 0 allocs/op, and a deterministic seeded load harness
// (serve.Traffic) gates batched-vs-naive throughput at >= 2x in CI.
//
// # Design-space sweeps
//
// The paper's payoff is design-space exploration at prediction cost, and
// internal/perfvec, internal/uarch, internal/dse, and internal/serve carry
// it to fleet scale. uarch.GenerateSpace expands a seeded SpaceSpec into
// thousands of deduplicated candidate configurations (a deterministic
// grid-stratified PCG draw: the spec is a complete cache key, so the same
// spec names the same space everywhere). perfvec.Sweeper embeds the whole
// space once (UarchModel.Reps32, row-for-row bitwise the single-config Rep)
// and packs the representations once into the GEMM engine's B panels
// (tensor.PackBT32). A sweep then packs only the program side:
// dse.SweepPrograms gathers every program's representation into one matrix
// and ranks all K candidates for all of them in one product on the panels
// (tensor.MatMulPackedBT32), split across the worker pool. Because each
// output element is the same ascending-k FMA chain regardless of batch
// composition, and packing only moves elements, every batched prediction is
// bit-for-bit the single-uarch one (PredictTotalNs32) at any worker count.
// The sweep hot path is //perfvec:hotpath-annotated and draws scratch from
// a pooled slab free list (zero steady-state allocations, pinned by
// bench_budget.json). Amortizing the embedding and batching the predictor
// makes the batched sweep about three orders of magnitude faster than
// per-config re-embedding in configs/s (BenchmarkSweep vs
// BenchmarkSweepNaive; cmd/perfvec-bench -budget gates the ratio at >= 10x
// at 2048 configs, measured interleaved in one process). dse.RunPerfVec
// encodes each target program once through the f32 fast path and sweeps
// the paper's §VI-A space through the same engine; cmd/perfvec-dse adds a
// generated fleet-scale space on top (-space-size), and serve exposes the
// whole path as the POST /v1/sweep batch endpoint, where a cached program
// representation makes a thousands-of-candidates sweep cost zero encoder
// passes.
//
// # Precision policy
//
// The numeric substrate is float32 end to end: training, the tape forward,
// and serving all run on the same f32 packed GEMM engine, and every bitwise
// contract above (fusion, parallelism, batch invariance) is stated at f32.
// Two inference engines serve, selected by serve.Config's Precision
// (cmd/perfvec-serve -precision f32|int8), and a third, the float64
// oracle, is the reference both are held against. All three run through one
// batch encode loop (perfvec.Encoder's claim/encode/fold pass) and differ
// only in the forward backend:
//
//   - The forward-only float32 fast path (the default): tensor.Slab32
//     arenas, tensor's *32 entry points, and nn.ForwardWindows32 run the
//     inference graph without tape records, VJP scratch stores, or backward
//     bookkeeping. internal/nn writes each architecture's forward graph
//     once, generic over the activation type and a kernel backend; the
//     training tape and the float32, int8 and float64 tiers are its four
//     backends, and the trainer's validation loss runs on the float32 one.
//     Its kernels are twins of the tape kernels minus the backward-only
//     stores; on AVX2+FMA hosts both run the exact LSTM cell through a
//     4-lane vector twin of math.Exp and math.Tanh that repeats the scalar
//     code's operations, math.Exp's own amd64 FMAs included and no FMA
//     beyond them, so its output is bitwise identical to the tape backend's
//     (pinned per-op, per-architecture, and end-to-end through
//     perfvec.Encoder.EncodePrograms32) — switching the serving default to
//     it changed no bit of any served representation. Slab32 follows the
//     pooled-tape lifetime rule: tensors drawn from a slab die at its next
//     Reset, and results leave a pass only by copy.
//   - The int8 quantized tier (serve.PrecisionInt8): per-output-channel
//     symmetric int8 weights (quantized once, at first use, from the frozen
//     f32 weights), dynamic per-row activation quantization to 7-bit codes,
//     u8 x i8 integer GEMMs (VPMADDUBSW/VPMADDWD on AVX2, a bit-identical
//     portable twin elsewhere) with per-channel dequantization fused into
//     the epilogue, and fast polynomial gate nonlinearities (vectorized
//     8-wide on AVX2, bit-identical to their scalar fallback). SlabI8
//     extends the arena discipline to the quantized scratch, so the tier
//     holds the zero-steady-state-allocation property. It trades a pinned
//     epsilon for throughput: >= 1.5x the f32 fast path on batched encodes
//     (cmd/perfvec-bench -budget gates the EncodeQ8/EncodeF32 pair, measured
//     interleaved in one process), with every
//     representation element within 5e-2 of the f64 oracle normalized by
//     the representation's dynamic range — quantization noise scales with
//     the range, so the bound is stated against it. Deterministic and
//     batch-invariant within the tier.
//   - The float64 oracle (perfvec.Foundation.EncodePrograms64), not a
//     serving tier: nn.Oracle64 widens the frozen weights exactly and runs
//     the same inference graph (internal/nn/infer.go) on a float64 backend,
//     with every GEMM accumulation, transcendental, and reduction in
//     float64 (gemm64 uses deterministic math.FMA chains, invariant to
//     blocking and parallelism). It is the reference of both epsilon drift
//     harnesses, which hold the f32 path to relative error <= 1e-4
//     element-wise (mixed bound: |f32-f64| / max(|f64|, 1e-2*maxAbs(rep)))
//     and the int8 tier to 5e-2 range-normalized, across cell types,
//     seeds, batch compositions, denormal-adjacent weights and features,
//     all-zero windows, and chunk-boundary row counts, under both the AVX2
//     and portable kernels.
//
// The tiers are judged the way the paper judges a model: by prediction
// error of program time (internal/experiments TestTierErrorLedger). Mean
// error over programs, seen and unseen programs on the seen
// microarchitectures (Fig. 3) and on unseen ones through a fine-tuned table
// (Fig. 5), at Default() scale with 3 epochs of 30000 samples over
// 5000-instruction traces:
//
//	tier   Fig.3 seen   Fig.3 unseen   Fig.5 seen   Fig.5 unseen
//	f64    32.833592%   48.255110%     59.941480%   83.198986%
//	f32    32.833593%   48.255107%     59.941478%   83.198982%
//	int8   32.867584%   48.166578%     60.101938%   83.044154%
//
// f32 matches the oracle to 1e-6 (the test's bound), which is why float64
// serving was retired: it bought nothing measurable at about 5x the f32
// encode time. int8 stays within a fifth of a point of f32 here; the test bounds
// the gap at two points on the Fast() artifacts.
//
// GEMM cache-blocking parameters (KC/MC/NC) are tuned once at init from
// CPUID-detected L1d/L2 geometry (tensor.BlockingParams / CacheSizes;
// compile-time defaults when detection is unavailable). Tuning is
// bitwise-safe by construction — each output element is the same ascending-k
// FMA chain under any blocking — so runtime-sized blocks never perturb
// training or serving results (pinned by TestBlockingValueInvariance).
//
// perfbench/README.md describes the end-to-end benchmark: its workloads,
// metrics, and how to run it.
package repro
