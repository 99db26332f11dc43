package benchsuite

import (
	"math/rand"
	"testing"

	"repro/internal/perfvec"
	"repro/internal/tensor"
)

// MatMulQ8 measures the quantized GEMM entry point on the same 256x256x256
// product as MatMul32: dynamic per-row activation quantization, u8xi8
// integer dot products, per-channel dequantization — the whole pipeline, not
// just the integer kernel. Weights are quantized once outside the timed
// region, matching the serving path where quantization happens at model
// load.
func MatMulQ8(b *testing.B) {
	x := tensor.Tensor32{Data: make([]float32, 256*256), R: 256, C: 256}
	w := tensor.Tensor32{Data: make([]float32, 256*256), R: 256, C: 256}
	for i := range x.Data {
		x.Data[i] = float32(i%7) + 0.25
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) + 0.5
	}
	qw := tensor.QuantizeWeightsBT(w, 0, 256)
	var s tensor.Slab32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		tensor.MatMulQ8(&s, x, qw, nil)
	}
	b.StopTimer()
	ops := 2.0 * 256 * 256 * 256
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
}

// MatMulQ8ModelShape measures the quantized GEMM pipeline at the default
// LSTM encoder's recurrent shape: a 128-row block (one worker's range of a
// 256-row encode wave at two CPUs) through the x-projection (k=51 features
// into the 128 gate pre-activations, n=4*32), then the h-projection (k=32
// hidden) accumulated in add mode — the pair of calls each layer runs per
// timestep. At this size the quantize-pack and dequantize epilogues weigh as
// much as the integer dot products, which MatMulQ8's 256-cubed product
// hides.
func MatMulQ8ModelShape(b *testing.B) {
	const m, kx, kh, n = 128, 51, 32, 128
	rng := rand.New(rand.NewSource(73))
	mat := func(r, c int) tensor.Tensor32 {
		t := tensor.Tensor32{Data: make([]float32, r*c), R: r, C: c}
		for i := range t.Data {
			t.Data[i] = rng.Float32()*2 - 1
		}
		return t
	}
	x, h := mat(m, kx), mat(m, kh)
	wx := tensor.QuantizeWeightsBT(mat(n, kx), 0, kx)
	wh := tensor.QuantizeWeightsBT(mat(n, kh), 0, kh)
	var s tensor.Slab32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		pre := tensor.MatMulQ8(&s, x, wx, nil)
		tensor.MatMulQ8Into(&s, pre, h, wh, nil, true)
	}
	b.StopTimer()
	ops := 2.0 * m * n * (kx + kh)
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
}

// EncodeQ8 measures the int8 batched encode over the identical 1024-row
// batch as EncodeF32: quantized GEMMs plus the fast polynomial gate kernels.
// Paired with EncodeF32, this is the recorded int8-vs-f32 throughput
// comparison (the acceptance floor is int8 >= 1.5x f32 batched encode at
// batch >= 256 on amd64/AVX2).
func EncodeQ8(b *testing.B) {
	cfg := perfvec.DefaultConfig()
	encodeBench(b, cfg, encodePrograms(cfg), true)
}

// EncodeLongQ8 is EncodeLongF32 on the int8 tier.
func EncodeLongQ8(b *testing.B) {
	cfg := perfvec.DefaultConfig()
	encodeBench(b, cfg, randomPrograms(cfg, longRows), true)
}
