package hotalloc_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/fix", hotalloc.Analyzer)
}

// TestHotAllocServeHandler runs the analyzer over a serving-handler-shaped
// fixture: the pooled submit idiom internal/serve's annotated hot path uses
// (clean, with its one waived warm-up allocation) next to the same handler
// with the pools forgotten (every per-request allocation flagged).
func TestHotAllocServeHandler(t *testing.T) {
	analysistest.Run(t, "testdata/serve", hotalloc.Analyzer)
}

// TestHotAllocSweep runs the analyzer over the batched design-space sweep
// fixture: the Sweeper idiom — packed candidates embedded once, per-sweep
// scratch from a slab free list with the warm-up growth waived — next to
// the same sweep with the pool forgotten (per-call scratch, output, audit
// growth, and boxing all flagged).
func TestHotAllocSweep(t *testing.T) {
	analysistest.Run(t, "testdata/sweep", hotalloc.Analyzer)
}

// TestHotAllocInferSlab runs the analyzer over the forward-only float32
// encode fixture: the pooled-slab idiom EncodePrograms32 and Slab32 use
// (growth only at high-water marks, each growth waived) next to the same
// encode with the slab forgotten (per-pass window, header, and output
// allocations all flagged).
func TestHotAllocInferSlab(t *testing.T) {
	analysistest.Run(t, "testdata/infer", hotalloc.Analyzer)
}

// TestHotAllocQuantSlab runs the analyzer over the quantized GEMM fixture:
// the slab idiom Slab32 and MatMulQ8 use (one generic grow-only pool type,
// one pool per element type — u8 codes, i32 accumulators, f32 scales — the
// warm-up growth waived once in the generic method) next to a generic pool
// whose growth is not waived (flagged in the generic method) and the same
// quantize/multiply/dequant pass with the slab forgotten (every per-call
// scratch allocation flagged).
func TestHotAllocQuantSlab(t *testing.T) {
	analysistest.Run(t, "testdata/quant", hotalloc.Analyzer)
}
