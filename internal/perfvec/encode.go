package perfvec

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the batch-inference engine of the foundation model: the
// machinery perfvec-serve uses to coalesce many clients' concurrent encode
// requests into a small number of large encoder GEMM passes, and the pooled
// workers every other inference path (InstructionReps, ProgramRep,
// StreamRep) runs on. The packed GEMM engine only reaches its throughput on
// big batches, so a serving layer that ran one forward per request would
// waste almost all of it; EncodePrograms32 and EncodeProgramsQ8 concatenate
// the instruction rows of whole groups of programs and encode them
// together, chunked at streamChunk rows — the same chunk size
// InstructionReps and StreamRep use, so every inference path drives the
// encoder with identically shaped batches.
//
// Coalescing is invisible in the output because the encoder is row-wise
// batch-invariant: every per-sample computation (the window GEMM rows, the
// recurrent cells, attention over window positions) depends only on that
// sample's own window, and the GEMM engine computes each output row as the
// same FMA chain over k regardless of how many other rows share the pass
// (TestEncodePrograms32Bitwise pins this). A program representation
// produced by a coalesced pass is therefore bitwise identical to ProgramRep
// on the same program alone.

// Encoder is a reusable batch-inference worker: the float32 and int8
// inference arenas a forward pass runs on, plus the float64 accumulation
// scratch a coalesced pass sums per-program representations in. Encoders
// are pooled on the Foundation (AcquireEncoder/ReleaseEncoder). Tensors
// drawn from the arenas die at the next pass's Reset, so nothing produced
// inside a pass may escape it — results leave through caller-owned slices
// only. An Encoder is confined to one goroutine between Acquire and
// Release.
type Encoder struct {
	f   *Foundation
	acc []float64 // [len(ps) x RepDim] per-program accumulators, reused

	// slab is the forward-only float32 arena every pass runs on; slabQ is
	// the quantization arena of the int8 GEMMs (EncodeProgramsQ8). Both
	// are reset at the start of every chunk.
	slab  tensor.Slab32
	slabQ tensor.SlabI8
}

// encoderPool is the Foundation's free list of inference encoders:
// concurrent borrowers are safe, each borrowed encoder is goroutine-confined
// until released. built counts constructions — the serving steady-state
// allocation tests watch it.
type encoderPool struct {
	mu    sync.Mutex
	es    []*Encoder
	built int
}

// AcquireEncoder borrows a pooled inference encoder, building one on first
// use. Pair with ReleaseEncoder.
func (f *Foundation) AcquireEncoder() *Encoder {
	p := &f.encoders
	p.mu.Lock()
	if n := len(p.es); n > 0 {
		e := p.es[n-1]
		p.es = p.es[:n-1]
		p.mu.Unlock()
		return e
	}
	p.built++
	p.mu.Unlock()
	return &Encoder{f: f}
}

// ReleaseEncoder returns a borrowed encoder to the pool.
func (f *Foundation) ReleaseEncoder(e *Encoder) {
	p := &f.encoders
	p.mu.Lock()
	p.es = append(p.es, e)
	p.mu.Unlock()
}

// EncoderStats reports how many encoders have been built and the total
// arena growths (Slab32 plus SlabI8) across the pooled ones — the
// regression counters for the inference paths' "pooled arenas, reused
// buffers" promise.
func (f *Foundation) EncoderStats() (built, slabGrows int) {
	p := &f.encoders
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.es {
		slabGrows += e.slab.Grows() + e.slabQ.Grows()
	}
	return p.built, slabGrows
}

// encode is the one chunk/fill/accumulate loop behind EncodePrograms32 and
// EncodeProgramsQ8: it runs coalesced forward passes over the concatenated
// instruction rows of ps and writes each program's representation into the
// caller-owned dst[i] (length RepDim). The concatenation is chunked at
// streamChunk rows — chunks freely span program boundaries — so a batch of
// many small programs costs a few large GEMM passes instead of one small
// pass per program. Rows are summed per program in row order through
// float64 accumulators, the same sum SumReps computes. Every ps[i].N must
// be >= 1.
//
//perfvec:hotpath
func (e *Encoder) encode(ps []*ProgramData, dst [][]float32, q8 bool) {
	d := e.f.Cfg.RepDim
	total := 0
	for _, p := range ps {
		if p.N < 1 {
			panic("perfvec: batch encode requires non-empty programs")
		}
		total += p.N
	}
	if cap(e.acc) < len(ps)*d {
		e.acc = make([]float64, len(ps)*d) //perfvec:allow hotalloc -- scratch grows only when a batch carries more programs than any before; steady state reuses it
	}
	acc := e.acc[:len(ps)*d]
	clear(acc)

	// (pi, off): the next instruction to accumulate — program index and
	// offset within it. The fill cursor (fpi, foff) runs one chunk ahead.
	pi, off := 0, 0
	fpi, foff := 0, 0
	for base := 0; base < total; base += streamChunk {
		bsz := min(streamChunk, total-base)
		xs := e.windows(bsz)
		for row := 0; row < bsz; {
			p := ps[fpi]
			k := min(bsz-row, p.N-foff)
			fillWindowRows(xs, p, foff, foff+k, row)
			row += k
			foff += k
			if foff == p.N {
				fpi++
				foff = 0
			}
		}
		reps := e.forward(xs, q8)
		for row := 0; row < bsz; {
			p := ps[pi]
			k := min(bsz-row, p.N-off)
			a := acc[pi*d : (pi+1)*d]
			for i := 0; i < k; i++ {
				r := reps.Row(row + i)
				for j, v := range r {
					a[j] += float64(v)
				}
			}
			row += k
			off += k
			if off == p.N {
				pi++
				off = 0
			}
		}
	}
	for i := range ps {
		a := acc[i*d : (i+1)*d]
		out := dst[i]
		for j, v := range a {
			out[j] = float32(v)
		}
	}
}

// windows starts a forward pass: it recycles both arenas and draws the
// pass's zeroed [n x FeatDim] window matrices, one per window position.
//
//perfvec:hotpath
func (e *Encoder) windows(n int) []tensor.Tensor32 {
	e.slab.Reset()
	e.slabQ.Reset()
	xs := e.slab.Mats(e.f.Cfg.Window)
	for t := range xs {
		xs[t] = e.slab.Mat(n, e.f.Cfg.FeatDim)
	}
	return xs
}

// forward runs encoder and head over the window matrices xs on the
// encoder's arenas: the float32 engine (bitwise identical to Forward on an
// inference tape) or, when q8 is set, the int8 engine. The result lives
// until the next pass.
//
//perfvec:hotpath
func (e *Encoder) forward(xs []tensor.Tensor32, q8 bool) tensor.Tensor32 {
	f := e.f
	if q8 {
		enc, head := f.q8()
		return head.Forward(&e.slab, &e.slabQ, nn.ForwardSeqQ8(enc, &e.slab, &e.slabQ, xs))
	}
	return f.Head.Forward32(&e.slab, nn.ForwardSeq32(f.Encoder, &e.slab, xs))
}

// fillWindowRows copies the input windows of instructions [from, to) of p
// into rows [rowOff, rowOff+(to-from)) of the window matrices xs,
// zero-padding positions before the program start exactly like WindowsFor
// (slab matrices arrive zeroed, so padding is a skip, not a write).
//
//perfvec:hotpath
func fillWindowRows(xs []tensor.Tensor32, p *ProgramData, from, to, rowOff int) {
	window := len(xs)
	for b := from; b < to; b++ {
		row := rowOff + b - from
		for t := 0; t < window; t++ {
			src := b - (window - 1) + t
			if src < 0 {
				continue
			}
			copy(xs[t].Row(row), p.Features[src*p.FeatDim:(src+1)*p.FeatDim])
		}
	}
}
