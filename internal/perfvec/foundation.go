package perfvec

import (
	"fmt"
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
	// borrows: the coalesced encode behind perfvec-serve's batches and
	// InstructionReps, and Trainer.Loss; see Encoder and encoderPool in
	// encode.go.
	encoders encoderPool

	// The float64 oracle image of the model (widened weights, float64
	// backend) is built lazily on first use — it assumes frozen weights,
	// the assumption serving already makes; see encode32.go.
	oracleOnce sync.Once
	oracle     *nn.Oracle64

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
	return f.Head.Forward(tp, nn.ForwardSeq(tp, f.Encoder, xs))
}

// InstructionReps generates the representation of every instruction in p:
// an [N x RepDim] matrix, bitwise equal to the tape forward over p's
// windows. Per §III-B this is embarrassingly parallel: it runs the
// coalesced encode's claimed row ranges (Encoder.encode) on the float32
// engine, each range writing its rows straight into the result instead of
// folding a program sum. An empty program gives a 0 x RepDim matrix.
func (f *Foundation) InstructionReps(p *ProgramData) *tensor.Tensor {
	if p.N == 0 {
		// tensor.New and encode both reject an empty program.
		return tensor.FromSlice(nil, 0, f.Cfg.RepDim)
	}
	out := tensor.New(p.N, f.Cfg.RepDim)
	e := f.AcquireEncoder()
	e.encode([]*ProgramData{p}, nil, out.Data, engineF32)
	f.ReleaseEncoder(e)
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
