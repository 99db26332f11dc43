package perfvec

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the batch-inference engine of the foundation model: the
// machinery perfvec-serve uses to coalesce many clients' concurrent encode
// requests into a small number of large encoder GEMM passes, the loop
// InstructionReps and ProgramRep run on, and the pooled workers the
// validation loss borrows. The packed GEMM engine only reaches its
// throughput on big batches, so a serving layer that ran one forward per
// request would waste almost all of it; EncodePrograms32 and
// EncodeProgramsQ8 concatenate the instruction rows of whole groups of
// programs and encode them together.
//
// A coalesced encode is one dispatch (§III-B: instruction representations
// are embarrassingly parallel). The concatenation is cut into row ranges of
// at most maxRangeRows rows — fewer when the call is too small to give every
// worker full ranges — which ranges freely span program boundaries. Every
// worker of one tensor.ParallelKernel call runs a claim loop: it takes the
// next range from a cursor, encodes it and claims again, until none is left,
// with no join between ranges. The caller's Encoder runs one claim loop; each
// other loop borrows an Encoder from the Foundation's pool for its forward
// passes, so a range's arena is never shared.
//
// A range hands the graph its instruction rows once (nn.Windows): for each
// program segment in it, the Window-1 rows before the segment (zero before
// the program start) and then the segment's own rows, with each output row's
// window starting Window-1 rows before its own. The first layer projects
// each row once instead of once per window that contains it.
//
// Program sums are folded in row order. A range writes its rows into one slot
// of a fixed ring (ringSlots per worker), and completed slots are added into
// the float64 per-program accumulators strictly in range order, so the sums
// are the ones a serial pass computes, at any GOMAXPROCS. A worker whose next
// range would overrun the ring parks until the fold frees its slot, so memory
// stays bounded however long the call, and a worker that runs ahead never
// spins on a CPU the oldest range needs. InstructionReps needs no sums: its
// ranges write their rows straight into the caller's output.
//
// Neither coalescing nor the range split is visible in the output because
// the encoder is row-wise batch-invariant: every per-sample computation (the
// input projection of each row, the recurrent cells, attention over window
// positions) depends only on that sample's own window, and the GEMM engine
// computes each output row as the same FMA chain over k regardless of how
// many other rows share the pass (TestEncodePrograms32Bitwise and
// TestEncodeLanesBitwise pin this). A program representation produced by a
// coalesced pass is therefore bitwise identical to ProgramRep on the same
// program alone.

// maxRangeRows is the most instruction rows one range of a coalesced encode
// covers, and so the row count of a forward pass. Outputs do not depend on
// it — batch invariance makes every row's representation independent of the
// batch it ran in — but it bounds the activation memory of a pass.
const maxRangeRows = 128

// ringSlots is the number of completed ranges per worker a coalesced encode
// holds for its in-order fold: enough that a worker can finish a range or
// two ahead of a slower peer without waiting.
const ringSlots = 3

// Encoder is a reusable batch-inference worker: the inference arena a
// forward pass runs on, plus the scratch a coalesced pass sums per-program
// representations in. Encoders are pooled on the Foundation
// (AcquireEncoder/ReleaseEncoder). In a coalesced pass the
// Encoder it is called on runs one claim loop and owns the ring and the
// accumulators; the other claim loops run on encoders borrowed from the same
// pool for the duration of the call. Tensors drawn from the arena die at
// the next range's Reset, so nothing produced inside a pass may escape it —
// results leave through caller-owned slices only. An Encoder is confined to
// one goroutine between Acquire and Release.
type Encoder struct {
	f      *Foundation
	acc    []float64 // [len(ps) x RepDim] per-program accumulators, reused
	starts []int32   // window start of each output row of the current pass
	job    encodeJob // the shared state of this encoder's coalesced passes

	// slab is the arena every pass runs on, the int8 GEMMs' quantization
	// scratch included; it is reset at the start of every range.
	slab tensor.Slab32
}

// encoderPool is the Foundation's free list of inference encoders:
// concurrent borrowers are safe, each borrowed encoder is goroutine-confined
// until released. built counts constructions — the serving steady-state
// allocation tests watch it.
type encoderPool struct {
	mu    sync.Mutex
	es    []*Encoder
	built int
	// peak is the largest slab footprint any encoder has needed. Every
	// claim loop reserves it up front: which ranges a loop draws depends on
	// scheduling, so without it an encoder that drew only small ranges
	// while warming up would grow its slab later.
	peak tensor.SlabSize
}

// reserve sizes e's slab for the largest pass any pooled encoder has run.
//
//perfvec:hotpath
func (e *Encoder) reserve() {
	p := &e.f.encoders
	p.mu.Lock()
	n := p.peak
	p.mu.Unlock()
	e.slab.Reserve(n)
}

// notePeak folds the passes e has run into the pool's largest footprint.
//
//perfvec:hotpath
func (e *Encoder) notePeak() {
	n := e.slab.Peak()
	p := &e.f.encoders
	p.mu.Lock()
	p.peak = p.peak.Max(n)
	p.mu.Unlock()
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
// slab growths across the pooled ones — the regression counters for the
// inference paths' "pooled arenas, reused buffers" promise.
func (f *Foundation) EncoderStats() (built, slabGrows int) {
	p := &f.encoders
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.es {
		slabGrows += e.slab.Grows()
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

// encode is the one claim/encode/fold loop behind EncodePrograms32,
// EncodeProgramsQ8, EncodePrograms64 and InstructionReps: it encodes the
// concatenated instruction rows of ps on engine eng in one dispatch (see
// the file comment). When reps is nil it sums each program's representation
// into e.acc (program i at [i*RepDim, (i+1)*RepDim)) and writes it rounded
// to float32 into the caller-owned dst[i] (length RepDim) when dst is
// non-nil; the rows are summed per program in row order through float64
// accumulators, the same sum SumReps computes. When reps is non-nil, row r
// of the concatenation is written into reps[r*RepDim:(r+1)*RepDim] instead
// and nothing is summed.
//
// Every ps[i].N must be >= 1 and every ps[i].FeatDim must equal the
// model's.
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
		if p.FeatDim != cfg.FeatDim {
			panic(fmt.Sprintf("perfvec: program %q has %d features per instruction, the model takes %d", p.Name, p.FeatDim, cfg.FeatDim)) //perfvec:allow hotalloc -- builds the message of a failing precondition only
		}
		total += p.N
	}
	if cap(e.acc) < len(ps)*d {
		e.acc = make([]float64, len(ps)*d) //perfvec:allow hotalloc -- scratch grows only when a batch carries more programs than any before; steady state reuses it
	}
	acc := e.acc[:len(ps)*d]
	clear(acc)

	workers := runtime.GOMAXPROCS(0)
	rows := min(maxRangeRows, (total+workers-1)/workers)
	ranges := (total + rows - 1) / rows
	claimers := min(workers, ranges)
	j := &e.job
	j.start(e, ps, eng, reps, acc, total, rows, ringSlots*claimers)
	tensor.ParallelKernel(claimers, total*cfg.rowWork(), kEncodeClaims, tensor.KernelArgs{X: j})
	j.finish()
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

// rowWork is the per-row work estimate the coalesced encode and
// Trainer.Loss hand ParallelKernel: a window's worth of first-layer GEMM
// work. The first layer projects each input row once (nn.Windows), so it
// bounds no architecture's cost; it only sizes a dispatch against the
// pool's threshold.
func (c *Config) rowWork() int { return c.Window * c.FeatDim * c.Hidden }

// encodeJob is the shared state of one coalesced encode (kEncodeClaims'
// KernelArgs.X), owned by the caller's Encoder: the claim cursor, the ring
// of completed ranges and the in-order fold. Every field below mu is
// guarded by it.
type encodeJob struct {
	e     *Encoder // the caller's encoder: runs claim loop 0, owns the ring
	ps    []*ProgramData
	eng   engine
	reps  []float32 // per-row output, or nil to fold into acc
	acc   []float64
	total int // rows in the call
	rows  int // rows per range (the last may be shorter)
	slots int // ring slots in use

	mu    sync.Mutex
	freed sync.Cond // broadcast when the fold frees ring slots
	// next is the next range to claim; (pi, off) its first row, as program
	// index and offset within it.
	next, pi, off int
	// folded counts the ranges added into acc; (fpi, foff) is the next
	// folded row.
	folded, fpi, foff int
	done              []bool    // per slot: holds a completed, unfolded range
	ring              []float64 // [slots x rows x RepDim] completed ranges
}

// start readies the job for one call.
//
//perfvec:hotpath
func (j *encodeJob) start(e *Encoder, ps []*ProgramData, eng engine, reps []float32, acc []float64, total, rows, slots int) {
	j.e, j.ps, j.eng, j.reps, j.acc = e, ps, eng, reps, acc
	j.total, j.rows, j.slots = total, rows, slots
	j.next, j.pi, j.off = 0, 0, 0
	j.folded, j.fpi, j.foff = 0, 0, 0
	j.freed.L = &j.mu
	if reps != nil {
		return
	}
	if n := slots * rows * e.f.Cfg.RepDim; len(j.ring) < n {
		j.ring = make([]float64, n) //perfvec:allow hotalloc -- the ring grows only when a call needs more slots or rows than any before; steady state reuses it
	}
	if len(j.done) < slots {
		j.done = make([]bool, slots) //perfvec:allow hotalloc -- grows with the ring
	}
	clear(j.done)
}

// finish drops the references to the call's programs and outputs.
//
//perfvec:hotpath
func (j *encodeJob) finish() {
	j.ps, j.reps, j.acc = nil, nil, nil
}

// claim takes the next range, parking first while its ring slot still holds
// an unfolded range. It returns the range index and its first row, or
// ok=false once every range is claimed.
//
//perfvec:hotpath
func (j *encodeJob) claim() (r, pi, off int, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.reps == nil && j.next*j.rows < j.total && j.next-j.folded >= j.slots {
		j.freed.Wait()
	}
	if j.next*j.rows >= j.total {
		return 0, 0, 0, false
	}
	r, pi, off = j.next, j.pi, j.off
	j.next++
	// Advance the cursor past this range's rows.
	for left := min(j.rows, j.total-r*j.rows); left > 0; {
		k := min(left, j.ps[j.pi].N-j.off)
		left -= k
		j.off += k
		if j.off == j.ps[j.pi].N {
			j.pi++
			j.off = 0
		}
	}
	return r, pi, off, true
}

// complete marks range r's slot filled and folds every completed range at
// the head of the ring into the accumulators, in range order.
//
//perfvec:hotpath
func (j *encodeJob) complete(r int) {
	d := j.e.f.Cfg.RepDim
	j.mu.Lock()
	j.done[r%j.slots] = true
	for j.folded < j.next && j.done[j.folded%j.slots] {
		s := j.folded % j.slots
		n := min(j.rows, j.total-j.folded*j.rows)
		j.fpi, j.foff = addRows(j.acc, j.ps, d, j.fpi, j.foff, j.ring[s*j.rows*d:][:n*d])
		j.done[s] = false
		j.folded++
	}
	j.freed.Broadcast()
	j.mu.Unlock()
}

// kEncodeClaims runs claim loops [c0, c1) of a coalesced encode: each takes
// ranges until none is left, encodes them and hands their rows to the ring
// (or straight to the per-row output). ParallelKernel always runs loop 0 on
// the calling goroutine, so that loop uses the caller's encoder; any other
// loop borrows a pooled one for its ranges. X=*encodeJob.
//
//perfvec:hotpath
func kEncodeClaims(c0, c1 int, ka tensor.KernelArgs) {
	j := ka.X.(*encodeJob)
	f := j.e.f
	e := j.e
	if c0 > 0 {
		e = f.AcquireEncoder()
	}
	e.reserve()
	d := f.Cfg.RepDim
	for {
		r, pi, off, ok := j.claim()
		if !ok {
			break
		}
		base := r * j.rows
		n := min(j.rows, j.total-base)
		xs := e.windowBatch(j.ps, pi, off, n)
		if j.reps != nil {
			out := j.reps[base*d : (base+n)*d]
			if j.eng == engineOracle {
				for i, v := range e.forward64(xs).Data {
					out[i] = float32(v)
				}
			} else {
				copy(out, e.forward(xs, j.eng == engineQ8).Data)
			}
		} else {
			out := j.ring[(r%j.slots)*j.rows*d:][:n*d]
			if j.eng == engineOracle {
				copy(out, e.forward64(xs).Data)
			} else {
				for i, v := range e.forward(xs, j.eng == engineQ8).Data {
					out[i] = float64(v)
				}
			}
			j.complete(r)
		}
		e.notePeak()
	}
	if c0 > 0 {
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

// windowBatch starts a forward pass: it recycles the slab and lays out
// the window batch of the n concatenated rows of ps that begin at
// instruction off of program pi. Each program segment in the range
// contributes the Window-1 rows before it (zero before the program start;
// slab matrices arrive zeroed, so padding is a skip, not a write) and its
// own rows; output row b's window starts Window-1 rows before its own row.
//
//perfvec:hotpath
func (e *Encoder) windowBatch(ps []*ProgramData, pi, off, n int) nn.Windows[tensor.Tensor32] {
	e.slab.Reset()
	w, fd := e.f.Cfg.Window, e.f.Cfg.FeatDim
	segs := 0
	for p, o, left := pi, off, n; left > 0; p, o = p+1, 0 {
		left -= min(left, ps[p].N-o)
		segs++
	}
	rows := e.slab.Mat(n+segs*(w-1), fd)
	start := e.startBuf(n)
	r, b := 0, 0 // next row of the batch, next output row
	for left := n; left > 0; pi, off = pi+1, 0 {
		p := ps[pi]
		k := min(left, p.N-off)
		lo := off - (w - 1) // instruction of the segment's first window row
		src := max(lo, 0)
		copy(rows.Data[(r+src-lo)*fd:], p.Features[src*fd:(off+k)*fd])
		for i := range k {
			start[b+i] = int32(r + i)
		}
		r += k + w - 1
		b += k
		left -= k
	}
	return nn.Windows[tensor.Tensor32]{Rows: rows, Start: start, Len: w}
}

// startBuf returns the encoder's window-start buffer, sized for n output
// rows.
//
//perfvec:hotpath
func (e *Encoder) startBuf(n int) []int32 {
	if cap(e.starts) < n {
		e.starts = make([]int32, n) //perfvec:allow hotalloc -- grows to the largest batch once; steady state reuses it
	}
	return e.starts[:n]
}

// forward runs encoder and head over the window batch xs on the encoder's
// slab: the float32 engine (bitwise identical to the tape Forward) or,
// when q8 is set, the int8 engine. The result lives until the next pass.
//
//perfvec:hotpath
func (e *Encoder) forward(xs nn.Windows[tensor.Tensor32], q8 bool) tensor.Tensor32 {
	f := e.f
	if q8 {
		enc, head := f.q8()
		return head.Forward(&e.slab, nn.ForwardWindowsQ8(enc, &e.slab, xs))
	}
	return f.Head.Forward32(&e.slab, nn.ForwardWindows32(f.Encoder, &e.slab, xs))
}
