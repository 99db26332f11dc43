package perfvec

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// streamChunk is the number of records a streaming pass buffers before
// flushing them through featurization, window assembly, and the timing
// simulators. It bounds the pipeline's record working set and doubles as the
// inference batch size: InstructionReps chunks at the same constant, so the
// streaming and materialized paths run the encoder over identical batches
// and their outputs agree bitwise.
const streamChunk = 256

// Collector selects the data-collection pipeline behind a single interface.
// The zero value is the materialized pipeline (capture the whole trace, then
// featurize and simulate it); setting Stream switches to the streaming
// pipeline, which runs ONE emulator pass whose records are featurized and
// fed to all K timing simulators in bounded chunks of streamChunk records —
// the trace itself is never materialized, so peak overhead beyond the
// returned ProgramData is O(streamChunk) records instead of O(trace length).
// Both pipelines produce bitwise-identical ProgramData: the extractor sees
// the same record sequence, and each simulator Feeds the same records in the
// same order.
type Collector struct {
	Stream bool
}

// Program collects one benchmark's ProgramData through the configured
// pipeline; see CollectProgramData for the semantics.
func (c Collector) Program(b bench.Benchmark, cfgs []*uarch.Config, scale, maxInsts int) (*ProgramData, error) {
	if c.Stream {
		return streamProgram(b, cfgs, scale, maxInsts)
	}
	return CollectProgramData(b, cfgs, scale, maxInsts)
}

// Features collects one benchmark's featurized trace without simulating any
// microarchitecture; see CollectFeatures for the semantics.
func (c Collector) Features(b bench.Benchmark, scale, maxInsts int) (*ProgramData, error) {
	if c.Stream {
		return streamFeatures(b, scale, maxInsts)
	}
	return CollectFeatures(b, scale, maxInsts)
}

// All collects ProgramData for several benchmarks concurrently through the
// configured pipeline.
func (c Collector) All(benches []bench.Benchmark, cfgs []*uarch.Config, scale, maxInsts int) ([]*ProgramData, error) {
	return collectAll(benches, func(b bench.Benchmark) (*ProgramData, error) {
		return c.Program(b, cfgs, scale, maxInsts)
	})
}

// streamPass drives one streaming featurization pass: it pulls records from
// src in chunks of streamChunk, featurizes each chunk in trace order, and
// hands (records, feature rows) to onChunk. Both buffers are reused across
// chunks — onChunk must copy anything it keeps. It returns the number of
// records processed.
func streamPass(src trace.Stream, onChunk func(recs []trace.Record, rows []float32) error) (int, error) {
	ext := features.NewExtractor(streamChunk)
	recs := make([]trace.Record, 0, streamChunk)
	rows := make([]float32, streamChunk*features.NumFeatures)
	n := 0
	for {
		var rec trace.Record
		ok, err := src.Next(&rec)
		if err != nil {
			return n, err
		}
		if ok {
			recs = append(recs, rec)
		}
		if len(recs) == streamChunk || (!ok && len(recs) > 0) {
			block := rows[:len(recs)*features.NumFeatures]
			for i := range recs {
				ext.Extract(&recs[i], block[i*features.NumFeatures:(i+1)*features.NumFeatures])
			}
			if err := onChunk(recs, block); err != nil {
				return n, err
			}
			n += len(recs)
			recs = recs[:0]
		}
		if !ok {
			return n, nil
		}
	}
}

// feedAll replays one chunk of records into every CPU, parallel across
// configurations through the tensor worker pool (each CPU remains strictly
// sequential over the trace). When inc is non-nil, inc[j][i] receives the
// incremental latency of record i on configuration j.
func feedAll(cpus []*sim.CPU, recs []trace.Record, inc [][]float32) {
	tensor.Parallel(len(cpus), func(from, to int) {
		for j := from; j < to; j++ {
			if inc != nil {
				for i := range recs {
					inc[j][i] = float32(cpus[j].Feed(&recs[i]))
				}
			} else {
				for i := range recs {
					cpus[j].Feed(&recs[i])
				}
			}
		}
	})
}

// streamProgram is the streaming form of CollectProgramData: one emulator
// pass, chunk-wise featurization, and chunk-wise parallel simulation on all
// K configurations.
func streamProgram(b bench.Benchmark, cfgs []*uarch.Config, scale, maxInsts int) (*ProgramData, error) {
	k := len(cfgs)
	cpus := make([]*sim.CPU, k)
	for j, cfg := range cfgs {
		cpus[j] = sim.New(cfg)
	}
	inc := make([][]float32, k)
	for j := range inc {
		inc[j] = make([]float32, streamChunk)
	}
	var feats, targets []float32
	n, err := streamPass(b.Stream(scale, maxInsts), func(recs []trace.Record, rows []float32) error {
		feats = append(feats, rows...)
		for j := range inc {
			inc[j] = inc[j][:len(recs)]
		}
		feedAll(cpus, recs, inc)
		base := len(targets)
		targets = append(targets, make([]float32, len(recs)*k)...)
		for i := range recs {
			for j := 0; j < k; j++ {
				targets[base+i*k+j] = inc[j][i]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("perfvec: %s produced an empty trace", b.Name)
	}
	pd := &ProgramData{
		Name: b.Name, N: n, FeatDim: features.NumFeatures, K: k,
		Features: feats,
		Targets:  targets,
		TotalNs:  make([]float64, k),
	}
	for j, cpu := range cpus {
		pd.TotalNs[j] = cpu.TotalNs()
	}
	return pd, nil
}

// streamFeatures is the streaming form of CollectFeatures.
func streamFeatures(b bench.Benchmark, scale, maxInsts int) (*ProgramData, error) {
	var feats []float32
	n, err := streamPass(b.Stream(scale, maxInsts), func(_ []trace.Record, rows []float32) error {
		feats = append(feats, rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("perfvec: %s produced an empty trace", b.Name)
	}
	return &ProgramData{
		Name: b.Name, N: n, FeatDim: features.NumFeatures,
		Features: feats,
	}, nil
}

// RowStream is a pull-based stream of per-instruction feature rows;
// features.StreamExtractor is the canonical implementation.
type RowStream interface {
	// Next stores the next feature row in out (len >= the stream's feature
	// dimensionality), reporting false when the stream ends.
	Next(out []float32) (bool, error)
}

// WindowStream assembles consecutive-instruction input windows from a
// feature-row stream through a ring-buffered features.WindowAssembler. Its
// batches are bitwise identical to WindowsFor over the materialized feature
// matrix (both copy the same rows into the same [batch x featDim] layout,
// zero-padding positions before the stream start), but its working set is
// O(window + batch) rows regardless of trace length.
//
// The batch tensors are owned by the stream and reused by every NextBatch
// call (rows whose window precedes the stream start are re-zeroed
// explicitly, so reuse is invisible in the values): callers must consume a
// batch before requesting the next one, which is what the chunk-at-a-time
// inference loops do.
type WindowStream struct {
	src     RowStream
	asm     *features.WindowAssembler
	window  int
	featDim int
	row     []float32
	bufs    []*tensor.Tensor // reused [maxB x featDim] batch buffers
	views   []*tensor.Tensor // reused truncated views for the final partial batch
}

// NewWindowStream returns a window stream over src.
func NewWindowStream(src RowStream, window, featDim int) *WindowStream {
	return &WindowStream{
		src:     src,
		asm:     features.NewWindowAssembler(window, featDim),
		window:  window,
		featDim: featDim,
		row:     make([]float32, featDim),
	}
}

// NextBatch assembles the windows of up to maxB further instructions,
// returning window tensors xs[t] of shape [n x featDim] (oldest position
// first) and the number of instructions n consumed. n == 0 with a nil error
// means the stream is exhausted. The returned tensors are valid until the
// next NextBatch call (see WindowStream).
func (w *WindowStream) NextBatch(maxB int) (xs []*tensor.Tensor, n int, err error) {
	for n < maxB {
		ok, err := w.src.Next(w.row)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		if w.bufs == nil || w.bufs[0].Rows() < maxB {
			// Allocate only once the stream proves non-empty, then reuse
			// across batches.
			w.bufs = make([]*tensor.Tensor, w.window)
			for t := range w.bufs {
				w.bufs[t] = tensor.New(maxB, w.featDim)
			}
		}
		xs = w.bufs
		w.asm.Push(w.row)
		for t := 0; t < w.window; t++ {
			if s := w.asm.Slot(t); s != nil {
				copy(xs[t].Row(n), s)
			} else {
				clear(xs[t].Row(n)) // zero padding; buffers are reused
			}
		}
		n++
	}
	if n == 0 {
		return nil, 0, nil
	}
	// Truncate against the buffers' actual row count, not maxB: the reused
	// buffers may be larger than this call's maxB, and returning untrimmed
	// tensors would expose stale rows from an earlier batch.
	if n < xs[0].Rows() {
		if w.views == nil {
			w.views = make([]*tensor.Tensor, w.window)
		}
		for t := range xs {
			w.views[t] = tensor.FromSlice(xs[t].Data[:n*w.featDim], n, w.featDim)
		}
		xs = w.views
	}
	return xs, n, nil
}

// StreamRep composes a program representation directly from a feature-row
// stream: windows are assembled on the fly, encoded in batches of
// streamChunk, and the per-instruction representations are summed as they
// are produced. Peak memory is O(window + streamChunk) feature rows — the
// trace's length never enters the footprint — and because the batches match
// InstructionReps' chunking, the result is bitwise identical to
// ProgramRep over the materialized ProgramData. Each batch runs the float32
// forward on a pooled encoder's arena (Reset between chunks) and the window
// buffers are reused by the stream, so the per-chunk encode loop allocates
// nothing after the first batch. It returns the program representation and
// the number of instructions consumed.
//
//perfvec:hotpath
func (f *Foundation) StreamRep(rows RowStream) ([]float32, int, error) {
	ws := NewWindowStream(rows, f.Cfg.Window, f.Cfg.FeatDim)
	e := f.AcquireEncoder()
	defer f.ReleaseEncoder(e)
	acc := make([]float64, f.Cfg.RepDim) //perfvec:allow hotalloc -- per-call accumulator setup; the per-chunk encode loop below allocates nothing
	total := 0
	for {
		xs, n, err := ws.NextBatch(streamChunk)
		if err != nil {
			return nil, total, err
		}
		if n == 0 {
			break
		}
		e.slab.Reset()
		xs32 := e.slab.Mats(len(xs))
		for t, x := range xs {
			xs32[t] = tensor.Tensor32{Data: x.Data, R: x.Rows(), C: x.Cols()}
		}
		reps := e.forward(xs32, false)
		for i := 0; i < n; i++ {
			for j, v := range reps.Row(i) {
				acc[j] += float64(v)
			}
		}
		total += n
	}
	out := make([]float32, len(acc)) //perfvec:allow hotalloc -- the returned representation is the caller's to keep; copied out once per call
	for j, v := range acc {
		out[j] = float32(v)
	}
	return out, total, nil
}
