package perfvec

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the batch-inference engine of the foundation model: the
// machinery perfvec-serve uses to coalesce many clients' concurrent encode
// requests into a small number of large encoder GEMM passes, the wave loop
// InstructionReps and ProgramRep run on, and the pooled workers the
// validation loss borrows. The packed GEMM engine only reaches its
// throughput on big batches, so a serving layer that ran one forward per
// request would waste almost all of it; EncodePrograms32 and
// EncodeProgramsQ8 concatenate the instruction rows of whole groups of
// programs and encode them together in waves of up to streamChunk rows.
//
// Each wave is split into contiguous row ranges across the tensor worker
// pool (§III-B: instruction representations are embarrassingly parallel).
// The range holding the wave's first row runs on the caller's Encoder; every
// other range borrows one from the Foundation's pool for its forward pass,
// so a range's arenas are never shared. The ranges write their rows into
// the caller's wave buffer, and the caller sums that buffer into the
// per-program accumulators in row order once the wave is done: the float64
// sums are the ones a serial pass computes, at any GOMAXPROCS.
//
// Neither coalescing nor the range split is visible in the output because
// the encoder is row-wise batch-invariant: every per-sample computation (the
// window GEMM rows, the recurrent cells, attention over window positions)
// depends only on that sample's own window, and the GEMM engine computes
// each output row as the same FMA chain over k regardless of how many other
// rows share the pass (TestEncodePrograms32Bitwise and TestEncodeLanesBitwise
// pin this). A program representation produced by a coalesced pass is
// therefore bitwise identical to ProgramRep on the same program alone.

// streamChunk is the wave size of the coalesced encode loop: the most
// instruction rows one wave splits across the worker pool, and so the
// height of an Encoder's wave buffer. Outputs do not depend on it — batch
// invariance makes every row's representation independent of the batch it
// ran in — but it bounds the activation memory of a pass.
const streamChunk = 256

// Encoder is a reusable batch-inference worker: the float32 and int8
// inference arenas a forward pass runs on, plus the float64 scratch a
// coalesced pass sums per-program representations in. Encoders are pooled
// on the Foundation (AcquireEncoder/ReleaseEncoder). In a coalesced pass the
// Encoder it is called on runs the first row range of every wave and owns
// the wave buffer and accumulators; the other ranges run on encoders
// borrowed from the same pool for the duration of one range. Tensors drawn
// from the arenas die at the next pass's Reset, so nothing produced inside a
// pass may escape it — results leave through caller-owned slices only. An
// Encoder is confined to one goroutine between Acquire and Release.
type Encoder struct {
	f    *Foundation
	acc  []float64 // [len(ps) x RepDim] per-program accumulators, reused
	wave []float64 // [streamChunk x RepDim] representation rows of one wave, reused
	job  encodeJob // argument block of this encoder's wave dispatches

	// slab is the forward-only float32 arena every pass runs on; slabQ is
	// the quantization arena of the int8 GEMMs (EncodeProgramsQ8). Both
	// are reset at the start of every range.
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

// engine selects the forward pass a coalesced encode runs on.
type engine int

const (
	engineF32    engine = iota // forward-only float32, bitwise equal to the tape forward
	engineQ8                   // quantized int8 serving tier
	engineOracle               // float64 oracle: the drift reference, never a serving tier
)

// encode is the one wave/fill/accumulate loop behind EncodePrograms32,
// EncodeProgramsQ8, EncodePrograms64 and InstructionReps: it runs coalesced
// forward passes on engine eng over the concatenated instruction rows of ps
// and sums each program's representation into e.acc (program i at
// [i*RepDim, (i+1)*RepDim)), writing it rounded to float32 into the
// caller-owned dst[i] (length RepDim) when dst is non-nil. When reps is
// non-nil, row r of the concatenation is also written, rounded to float32,
// into reps[r*RepDim:(r+1)*RepDim]; on the float32 engine the rounding is
// exact, since the wave buffer holds widened float32 values.
//
// The concatenation is cut into waves of streamChunk rows — waves freely
// span program boundaries — so a batch of many small programs costs a few
// large GEMM passes instead of one small pass per program. Each wave's rows
// are split into contiguous ranges across the worker pool (kEncodeRange);
// ParallelKernel runs the wave inline when it is too small to split or the
// pool is busy. Rows are summed per program in row order through float64
// accumulators, the same sum SumReps computes.
// Every ps[i].N must be >= 1.
//
//perfvec:hotpath
func (e *Encoder) encode(ps []*ProgramData, dst [][]float32, reps []float32, eng engine) {
	cfg := &e.f.Cfg
	d := cfg.RepDim
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
	if e.wave == nil {
		e.wave = make([]float64, streamChunk*d) //perfvec:allow hotalloc -- built on the encoder's first coalesced pass, reused by every later one
	}

	j := &e.job
	*j = encodeJob{e: e, ps: ps, eng: eng}
	// (pi, off): the first instruction of the next wave — program index
	// and offset within it.
	pi, off := 0, 0
	for base := 0; base < total; base += streamChunk {
		n := min(streamChunk, total-base)
		j.pi, j.off = pi, off
		tensor.ParallelKernel(n, n*cfg.rowWork(), kEncodeRange, tensor.KernelArgs{X: j})
		wave := e.wave[:n*d]
		pi, off = addRows(acc, ps, d, pi, off, wave)
		if reps != nil {
			for i, v := range wave {
				reps[base*d+i] = float32(v)
			}
		}
	}
	*j = encodeJob{} // drop the references to this pass's programs
	if dst == nil {
		return
	}
	for i := range ps {
		out := dst[i]
		for j, v := range acc[i*d : (i+1)*d] {
			out[j] = float32(v)
		}
	}
}

// rowWork is a lower bound on the scalar work of one row's forward pass:
// the first layer's GEMM over the row's window, in every architecture. The
// encode and evaluation dispatches estimate their work from it.
func (c *Config) rowWork() int { return c.Window * c.FeatDim * c.Hidden }

// encodeJob is the argument block of one wave's dispatch (kEncodeRange's
// KernelArgs.X), owned by the caller's Encoder.
type encodeJob struct {
	e       *Encoder // the caller's encoder: runs the range at row 0, owns the wave buffer
	ps      []*ProgramData
	eng     engine
	pi, off int // the wave's first row: program index and offset within it
}

// kEncodeRange encodes rows [r0, r1) of the current wave: it fills their
// windows, runs the forward pass of the job's engine and writes the
// representation rows, widened to float64, into rows [r0, r1) of the wave
// buffer. ParallelKernel always runs the range at row 0 on the calling
// goroutine, so that range uses the caller's encoder; any other range
// borrows a pooled one, which goes back to the pool once its rows are
// copied out. X=*encodeJob.
//
//perfvec:hotpath
func kEncodeRange(r0, r1 int, ka tensor.KernelArgs) {
	j := ka.X.(*encodeJob)
	f := j.e.f
	e := j.e
	if r0 > 0 {
		e = f.AcquireEncoder()
	}
	xs := e.windows(r1 - r0)
	// Walk the programs from the wave's first row, filling the windows of
	// the rows that fall in [r0, r1).
	pi, off := j.pi, j.off
	for row := 0; row < r1; {
		p := j.ps[pi]
		k := min(r1-row, p.N-off)
		if lo := max(row, r0); lo < row+k {
			fillWindowRows(xs, p, off+lo-row, off+k, lo-r0)
		}
		row += k
		off += k
		if off == p.N {
			pi++
			off = 0
		}
	}
	d := f.Cfg.RepDim
	out := j.e.wave[r0*d : r1*d]
	if j.eng == engineOracle {
		copy(out, e.forward64(xs).Data)
	} else {
		for i, v := range e.forward(xs, j.eng == engineQ8).Data {
			out[i] = float64(v)
		}
	}
	if r0 > 0 {
		f.ReleaseEncoder(e)
	}
}

// addRows sums reps — one d-wide representation row per instruction, in
// concatenation order — into the per-program accumulators, starting at
// instruction off of program pi, and returns the advanced cursor.
//
//perfvec:hotpath
func addRows(acc []float64, ps []*ProgramData, d, pi, off int, reps []float64) (int, int) {
	n := len(reps) / d
	for row := 0; row < n; {
		p := ps[pi]
		k := min(n-row, p.N-off)
		a := acc[pi*d : (pi+1)*d]
		for i := row; i < row+k; i++ {
			for j, v := range reps[i*d : (i+1)*d] {
				a[j] += v
			}
		}
		row += k
		off += k
		if off == p.N {
			pi++
			off = 0
		}
	}
	return pi, off
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
// encoder's arenas: the float32 engine (bitwise identical to the tape
// Forward) or, when q8 is set, the int8 engine. The result lives until the
// next pass.
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
