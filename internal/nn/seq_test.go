package nn

import (
	"repro/internal/tensor"
)

// The tests drive the forward-only backends with per-timestep matrices, the
// tape's input form. These helpers lay such a sequence out as a window
// batch with each output row's window its own segment (Start[b] = b·Len),
// the layout Trainer.Loss feeds the float32 backend.

// seqStarts backs the Start of every window batch the helpers build, so a
// warm helper call allocates nothing (the steady-state pins measure it).
// The package's tests do not run in parallel.
var seqStarts []int32

// sampleStarts returns b·steps for each of batch output rows.
func sampleStarts(batch, steps int) []int32 {
	if cap(seqStarts) < batch {
		seqStarts = make([]int32, batch)
	}
	start := seqStarts[:batch]
	for b := range start {
		start[b] = int32(b * steps)
	}
	return start
}

// seqWindows32 lays xs out sample-major on the slab: row b·len(xs)+t is
// row b of xs[t].
func seqWindows32(s *tensor.Slab32, xs []tensor.Tensor32) Windows[tensor.Tensor32] {
	batch, c := xs[0].R, xs[0].C
	rows := s.Mat(batch*len(xs), c)
	for t, x := range xs {
		for b := 0; b < batch; b++ {
			copy(rows.Row(b*len(xs)+t), x.Row(b))
		}
	}
	return Windows[tensor.Tensor32]{Rows: rows, Start: sampleStarts(batch, len(xs)), Len: len(xs)}
}

// ForwardSeq32 encodes a sequence of [batch, features] tensors on the slab
// through the float32 backend.
func ForwardSeq32(enc SeqEncoder, s *tensor.Slab32, xs []tensor.Tensor32) tensor.Tensor32 {
	return ForwardWindows32(enc, s, seqWindows32(s, xs))
}

// ForwardSeqQ8 encodes a sequence of [batch, features] tensors through the
// int8 backend.
func ForwardSeqQ8(enc *Q8Encoder, s *tensor.Slab32, xs []tensor.Tensor32) tensor.Tensor32 {
	return ForwardWindowsQ8(enc, s, seqWindows32(s, xs))
}

// ForwardSeq encodes a sequence of [batch, features] float64 tensors.
func (o *Oracle64) ForwardSeq(xs []tensor.Tensor64) tensor.Tensor64 {
	batch, c := xs[0].R, xs[0].C
	rows := tensor.NewTensor64(batch*len(xs), c)
	for t, x := range xs {
		for b := 0; b < batch; b++ {
			copy(rows.Row(b*len(xs)+t), x.Row(b))
		}
	}
	return o.ForwardWindows(Windows[tensor.Tensor64]{Rows: rows, Start: sampleStarts(batch, len(xs)), Len: len(xs)})
}
