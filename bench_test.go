package repro

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Figures 3-8, Tables III-IV, and the §IV/§V ablation
// studies), plus micro-benchmarks of the substrates. Each experiment bench
// runs the real pipeline at the reduced experiments.Fast() scale so the full
// suite completes in minutes; `cmd/perfvec-experiments` runs the same code
// at full experiment scale.

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchsuite"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/perfvec"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// --- Per-figure / per-table experiment benchmarks ---

func runExperiment(b *testing.B, fn func(*experiments.Artifacts, io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		arts := experiments.NewArtifacts(experiments.Fast(), nil)
		if err := fn(arts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3SeenUnseenPrograms(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Fig3(a, w)
		return err
	})
}

func BenchmarkFig4LbmMoved(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Fig4(a, w)
		return err
	})
}

func BenchmarkFig5UnseenUarch(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Fig5(a, w)
		return err
	})
}

func BenchmarkFig6ModelAblation(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Fig6(a, w)
		return err
	})
}

func BenchmarkAblationDataVolume(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Volume(a, w)
		return err
	})
}

func BenchmarkAblationFeatures(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.FeatureAblation(a, w)
		return err
	})
}

func BenchmarkTable3PredictionSpeed(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Table3(a, w)
		return err
	})
}

func BenchmarkTable4DSEComparison(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Table4(a, w)
		return err
	})
}

func BenchmarkFig7CacheDSESurface(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Fig7(a, w)
		return err
	})
}

func BenchmarkFig8LoopTiling(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Fig8(a, 16, w)
		return err
	})
}

func BenchmarkTrainReuseVsNaive(b *testing.B) {
	runExperiment(b, func(a *experiments.Artifacts, w io.Writer) error {
		_, err := experiments.Reuse(a, w)
		return err
	})
}

// --- Substrate micro-benchmarks ---

// BenchmarkSimulatorIPS measures the timing simulator's throughput
// (instructions per second) on a mixed workload.
func BenchmarkSimulatorIPS(b *testing.B) {
	bm, err := bench.ByName("525.x264")
	if err != nil {
		b.Fatal(err)
	}
	recs, err := bm.Trace(1, 50000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Predefined()[4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(cfg, recs, false)
	}
	b.ReportMetric(float64(len(recs)), "instructions/op")
}

// BenchmarkEmulatorIPS measures the functional emulator's throughput.
func BenchmarkEmulatorIPS(b *testing.B) {
	bm, err := bench.ByName("999.specrand")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, m := bm.Build(1)
		if _, err := emu.Run(m, prog, 50000, nil); err != nil && err != emu.ErrMaxInstructions {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction measures Table I featurization throughput.
func BenchmarkFeatureExtraction(b *testing.B) {
	bm, err := bench.ByName("505.mcf")
	if err != nil {
		b.Fatal(err)
	}
	recs, err := bm.Trace(1, 50000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ExtractAll(recs)
	}
	b.ReportMetric(float64(len(recs)), "instructions/op")
}

// BenchmarkFoundationInference measures instruction-representation
// generation throughput (the parallelizable step of §III-B).
func BenchmarkFoundationInference(b *testing.B) {
	bm, err := bench.ByName("527.cam4")
	if err != nil {
		b.Fatal(err)
	}
	pd, err := perfvec.CollectFeatures(bm, 1, 4096)
	if err != nil {
		b.Fatal(err)
	}
	cfg := perfvec.DefaultConfig()
	model := perfvec.NewFoundation(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.InstructionReps(pd)
	}
	b.ReportMetric(float64(pd.N), "instructions/op")
}

// BenchmarkDotProductPrediction measures PerfVec's end prediction cost: one
// dot product between program and microarchitecture representations.
func BenchmarkDotProductPrediction(b *testing.B) {
	cfg := perfvec.DefaultConfig()
	model := perfvec.NewFoundation(cfg)
	prog := make([]float32, cfg.RepDim)
	ua := make([]float32, cfg.RepDim)
	for i := range prog {
		prog[i] = float32(i)
		ua[i] = float32(i) * 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.PredictTotalNs(prog, ua)
	}
}

// BenchmarkMatMul measures the tensor GEMM backend on a 256x256x256 product.
// The kernels are branch-free in the data (the seed versions skipped zero
// multiplicands, which made timings depend on input sparsity), so inputs are
// filled with nonzero values and the result depends only on shape; per-kernel
// and portable-vs-SIMD breakdowns live in internal/tensor/matmul_test.go.
// The body lives in internal/benchsuite, shared with cmd/perfvec-bench.
func BenchmarkMatMul(b *testing.B) { benchsuite.MatMul(b) }

// BenchmarkTrainStep measures one reuse-form training step (batch assembly,
// forward, backward, optimizer) of the default model — the hot loop the
// arena-backed tape and fused gate kernels keep tensor-allocation-free.
// cmd/perfvec-bench records it in BENCH_N.json and CI gates its allocs/op
// against bench_budget.json.
func BenchmarkTrainStep(b *testing.B) { benchsuite.TrainStep(b) }

// BenchmarkServe measures batched serving throughput: a 32-client fleet of
// tiny distinct programs through the coalescing batcher (cache flushed per
// iteration, so every request takes the miss path). BenchmarkServeNaive is
// the same trace through the degenerate one-request-per-GEMM configuration;
// the req/s ratio between the two is the batching win CI smoke-checks.
func BenchmarkServe(b *testing.B)      { benchsuite.Serve(b) }
func BenchmarkServeNaive(b *testing.B) { benchsuite.ServeNaive(b) }

// BenchmarkServeSubmitHit and BenchmarkServePredict measure the serving hot
// path after the cache warms — hash+LRU copy and the cached dot product —
// both pinned to 0 allocs/op by bench_budget.json.
func BenchmarkServeSubmitHit(b *testing.B) { benchsuite.ServeSubmitHit(b) }
func BenchmarkServePredict(b *testing.B)   { benchsuite.ServePredict(b) }

// BenchmarkMatMul32 measures the forward-only float32 GEMM entry point on
// the MatMul shape with the output drawn from a reused slab; the delta from
// BenchmarkMatMul is the tape/arena overhead, since both share one packed
// engine.
func BenchmarkMatMul32(b *testing.B) { benchsuite.MatMul32(b) }

// BenchmarkEncodeF32 measures the float32 serving fast path over a fixed
// 1024-row coalesced batch.
func BenchmarkEncodeF32(b *testing.B) { benchsuite.EncodeF32(b) }

// BenchmarkMatMulQ8 measures the quantized GEMM pipeline (dynamic activation
// quantization, u8xi8 integer dot products, per-channel dequantization) on
// the MatMul shape, BenchmarkMatMulQ8ModelShape the same pipeline at the
// default LSTM encoder's recurrent shape (128 rows, k=51 then k=32 in add
// mode, n=128), where the quantize-pack and dequantize epilogues weigh as
// much as the integer GEMM, and BenchmarkEncodeQ8 the int8 serving tier
// over the EncodeF32 batch: quantized GEMMs with AVX2 epilogues plus the
// fused fast LSTM gate pass. The EncodeQ8/EncodeF32 rows/s ratio is the
// int8 speedup whose floor (>= 1.5x at batch >= 256) bench_budget.json sets
// and cmd/perfvec-bench -budget gates; bench_budget.json also pins all
// three at 0 allocs/op.
func BenchmarkMatMulQ8(b *testing.B)           { benchsuite.MatMulQ8(b) }
func BenchmarkMatMulQ8ModelShape(b *testing.B) { benchsuite.MatMulQ8ModelShape(b) }
func BenchmarkEncodeQ8(b *testing.B)           { benchsuite.EncodeQ8(b) }

// BenchmarkEncodeLongF32 and BenchmarkEncodeLongQ8 encode one 15000-row
// program (a predict-unseen program's size) on each serving tier: one
// coalesced call long enough that its dispatch, rather than per-program
// costs, decides the rate. bench_budget.json pins both at 0 allocs/op.
func BenchmarkEncodeLongF32(b *testing.B) { benchsuite.EncodeLongF32(b) }
func BenchmarkEncodeLongQ8(b *testing.B)  { benchsuite.EncodeLongQ8(b) }

// BenchmarkSweep measures the batched design-space sweep (candidates
// embedded once, one GEMM per program over a 2048-config space) and
// BenchmarkSweepNaive the same prediction matrix via per-config re-embedding
// and K=1 GEMMs. The configs/s ratio between them is the fleet-scale DSE
// amortization win (acceptance floor: >= 10x at >= 1024 configs), and
// bench_budget.json pins the batched path at 0 allocs/op.
func BenchmarkSweep(b *testing.B)      { benchsuite.Sweep(b) }
func BenchmarkSweepNaive(b *testing.B) { benchsuite.SweepNaive(b) }

// BenchmarkMatMulModelShape measures the same backend on the trainer's
// predictor shape (batch x repdim against a uarch table).
func BenchmarkMatMulModelShape(b *testing.B) {
	x := tensor.New(256, 83)
	w := tensor.New(128, 83)
	for i := range x.Data {
		x.Data[i] = float32(i%7) + 0.25
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) + 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulBT(nil, x, w)
	}
}

// BenchmarkStackDistance measures reuse-distance tracking throughput.
func BenchmarkStackDistance(b *testing.B) {
	sd := features.NewStackDist(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Access(uint64(i % 4096))
	}
}
