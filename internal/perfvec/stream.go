package perfvec

import (
	"repro/internal/features"
	"repro/internal/tensor"
)

// streamChunk is the encoder batch size of every inference path:
// InstructionReps, the coalesced encode passes and StreamRep all chunk at it,
// so streaming and materialized encodes run the encoder over identical
// batches and their outputs agree bitwise. simFeedRows also flushes records
// to the timing simulators at this cadence.
const streamChunk = 256

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
