package perfvec

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Foundation is the instruction representation model (§III): a sequence
// encoder over the instruction window plus a projection head producing the
// d-dimensional representation R_i. Together with a bias-free linear
// predictor (a dot product against a microarchitecture representation) it
// forms the PerfVec model.
type Foundation struct {
	Cfg     Config
	Encoder nn.SeqEncoder
	Head    *nn.Linear

	// encoders pools the inference workers every forward-only pass
	// borrows: perfvec-serve's coalesced batch encodes, InstructionReps'
	// chunks, and StreamRep; see Encoder and encoderPool in encode.go.
	encoders encoderPool

	// The float64 oracle image of the model (widened weights, float64
	// forward graph) is built lazily on first use — it assumes frozen
	// weights, the assumption serving already makes; see encode32.go.
	oracleOnce sync.Once
	oracleEnc  *nn.Oracle64
	oracleHead *nn.Linear64

	// The int8 image (per-channel quantized, pre-packed weights) is built
	// lazily under the same frozen-weights assumption; see encodeq8.go.
	q8Once sync.Once
	q8Enc  *nn.Q8Encoder
	q8Head *nn.LinearQ8
}

// NewFoundation builds a randomly initialized foundation model.
func NewFoundation(cfg Config) *Foundation {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc := cfg.newEncoder(rng)
	return &Foundation{
		Cfg:     cfg,
		Encoder: enc,
		Head:    nn.NewLinear(rng, enc.OutDim(), cfg.RepDim, true),
	}
}

// NewFoundationStruct builds a structure-only foundation model: the same
// layer graph and parameter shapes as NewFoundation, but every parameter is
// zero instead of randomly initialized. Data-parallel gradient workers use
// it for their replicas — the replica's Data slices are immediately aliased
// to the master's, so random init would be wasted work (for the default
// config it was the dominant cost of building a worker).
func NewFoundationStruct(cfg Config) *Foundation {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	enc := cfg.newEncoder(nil)
	return &Foundation{
		Cfg:     cfg,
		Encoder: enc,
		Head:    nn.NewLinear(nil, enc.OutDim(), cfg.RepDim, true),
	}
}

// Params returns all trainable tensors of the foundation model.
func (f *Foundation) Params() []*tensor.Tensor {
	return append(f.Encoder.Params(), f.Head.Params()...)
}

// Forward computes the batch of instruction representations for the given
// window tensors. Differentiable when tp is non-nil.
func (f *Foundation) Forward(tp *tensor.Tape, xs []*tensor.Tensor) *tensor.Tensor {
	return f.Head.Forward(tp, f.Encoder.ForwardSeq(tp, xs))
}

// InstructionReps generates the representation of every instruction in p.
// Per §III-B this is embarrassingly parallel: chunks of the trace are
// encoded concurrently through the tensor worker pool (the model is
// read-only during inference). The result is an [N x RepDim] matrix.
func (f *Foundation) InstructionReps(p *ProgramData) *tensor.Tensor {
	d := f.Cfg.RepDim
	out := tensor.New(p.N, d)
	// Chunking at streamChunk keeps these batches identical to the ones
	// StreamRep and the batch encode run, so the inference paths agree
	// bitwise.
	nChunks := (p.N + streamChunk - 1) / streamChunk
	tensor.Parallel(nChunks, func(c0, c1 int) {
		// Each chunk range runs the float32 forward on a pooled encoder's
		// arenas, recycled between chunks, so steady-state representation
		// generation allocates only the output matrix.
		e := f.AcquireEncoder()
		defer f.ReleaseEncoder(e)
		for c := c0; c < c1; c++ {
			from := c * streamChunk
			to := min(from+streamChunk, p.N)
			xs := e.windows(to - from)
			fillWindowRows(xs, p, from, to, 0)
			copy(out.Data[from*d:to*d], e.forward(xs, false).Data)
		}
	})
	return out
}

// ProgramRep composes a program representation by summing its instruction
// representations (the compositional property proved in §III-B).
func (f *Foundation) ProgramRep(p *ProgramData) []float32 {
	reps := f.InstructionReps(p)
	return SumReps(reps)
}

// SumReps sums the rows of an [N x D] representation matrix into one D-dim
// program representation.
func SumReps(reps *tensor.Tensor) []float32 {
	d := reps.Cols()
	out := make([]float64, d) // accumulate in float64 for stability
	for i := 0; i < reps.Rows(); i++ {
		row := reps.Row(i)
		for j, v := range row {
			out[j] += float64(v)
		}
	}
	res := make([]float32, d)
	for j, v := range out {
		res[j] = float32(v)
	}
	return res
}

// PredictTotalNs applies the linear predictor: execution time in ns from a
// program representation and one microarchitecture representation (a row of
// a Table or an output of a UarchModel).
func (f *Foundation) PredictTotalNs(progRep, uarchRep []float32) float64 {
	if len(progRep) != len(uarchRep) {
		panic(fmt.Sprintf("perfvec: rep dims differ: %d vs %d", len(progRep), len(uarchRep)))
	}
	var dot float64
	for i, v := range progRep {
		dot += float64(v) * float64(uarchRep[i])
	}
	// Undo target scaling, then convert ticks to ns.
	return dot / float64(f.Cfg.TargetScale) / sim.TickPerNs
}

// Table is the microarchitecture representation table of §IV-A: one learned
// d-dimensional row per sampled microarchitecture, trained jointly with (or
// after, for unseen microarchitectures) the foundation model.
type Table struct {
	M *tensor.Tensor // [K x RepDim]
}

// NewTable returns a randomly initialized representation table.
func NewTable(k, dim int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	return &Table{M: tensor.Randn(rng, 0.1, k, dim)}
}

// Rep returns the representation of microarchitecture j.
func (t *Table) Rep(j int) []float32 { return t.M.Row(j) }

// K returns the number of microarchitectures in the table.
func (t *Table) K() int { return t.M.Rows() }

// Save serializes the foundation model (config dims must match at load).
func (f *Foundation) Save(w io.Writer) error {
	return nn.SaveParams(w, f.Params())
}

// Load restores parameters saved by Save into this model.
func (f *Foundation) Load(r io.Reader) error {
	return nn.LoadParams(r, f.Params())
}

// Save serializes the representation table.
func (t *Table) Save(w io.Writer) error {
	return nn.SaveParams(w, []*tensor.Tensor{t.M})
}

// Load restores a table saved by Save; dimensions must match.
func (t *Table) Load(r io.Reader) error {
	return nn.LoadParams(r, []*tensor.Tensor{t.M})
}
