package benchsuite

import (
	"math/rand"
	"testing"

	"repro/internal/perfvec"
	"repro/internal/tensor"
)

// MatMul32 measures the forward-only float32 GEMM entry point on the same
// 256x256x256 product as MatMul, with the output drawn from a reused slab —
// the serving fast path's shape. MatMul and MatMul32 share one packed
// engine, so the delta between them is the tape/arena overhead, not the
// kernels.
func MatMul32(b *testing.B) {
	x := tensor.Tensor32{Data: make([]float32, 256*256), R: 256, C: 256}
	w := tensor.Tensor32{Data: make([]float32, 256*256), R: 256, C: 256}
	for i := range x.Data {
		x.Data[i] = float32(i%7) + 0.25
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) + 0.5
	}
	var s tensor.Slab32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		tensor.MatMul32(&s, x, w)
	}
	flops := 2.0 * 256 * 256 * 256
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// encodePrograms builds the fixed batch the encode benchmarks run: a few
// medium programs plus a tail of small ones, totalling 1024 instruction
// rows — eight full 128-row encode ranges spanning program boundaries.
func encodePrograms(cfg perfvec.Config) []*perfvec.ProgramData {
	return randomPrograms(cfg, 300, 256, 200, 100, 64, 33, 30, 20, 14, 7)
}

// longRows is the length of the EncodeLong benchmarks' one program: the
// size of a predict-unseen program (perfbench), where a coalesced encode's
// per-call dispatch and fold show rather than its per-program costs.
const longRows = 15000

// randomPrograms builds seeded programs of the given lengths with features
// uniform in [-1, 1).
func randomPrograms(cfg perfvec.Config, sizes ...int) []*perfvec.ProgramData {
	rng := rand.New(rand.NewSource(71))
	ps := make([]*perfvec.ProgramData, len(sizes))
	for i, n := range sizes {
		p := &perfvec.ProgramData{Name: "bench", N: n, FeatDim: cfg.FeatDim,
			Features: make([]float32, n*cfg.FeatDim)}
		for j := range p.Features {
			p.Features[j] = rng.Float32()*2 - 1
		}
		ps[i] = p
	}
	return ps
}

// EncodeF32 measures the float32 batched encode — the serving fast path —
// over the fixed 1024-row batch; EncodeQ8 runs the int8 tier over the same
// batch.
func EncodeF32(b *testing.B) {
	cfg := perfvec.DefaultConfig()
	encodeBench(b, cfg, encodePrograms(cfg), false)
}

// EncodeLongF32 measures the float32 encode of one longRows-row program;
// EncodeLongQ8 runs the int8 tier over the same program.
func EncodeLongF32(b *testing.B) {
	cfg := perfvec.DefaultConfig()
	encodeBench(b, cfg, randomPrograms(cfg, longRows), false)
}

// encodeBench runs the batched encode of ps on a pooled encoder — the int8
// tier when q8 is set, the float32 one otherwise — after one warm-up pass
// (which also quantizes the weights), and reports rows/s.
func encodeBench(b *testing.B, cfg perfvec.Config, ps []*perfvec.ProgramData, q8 bool) {
	f := perfvec.NewFoundation(cfg)
	rows := 0
	for _, p := range ps {
		rows += p.N
	}
	dst := make([][]float32, len(ps))
	for i := range dst {
		dst[i] = make([]float32, cfg.RepDim)
	}
	e := f.AcquireEncoder()
	defer f.ReleaseEncoder(e)
	encode := e.EncodePrograms32
	if q8 {
		encode = e.EncodeProgramsQ8
	}
	encode(ps, dst) // warm the slabs and their packing scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(ps, dst)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
