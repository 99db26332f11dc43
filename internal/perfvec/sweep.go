package perfvec

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// Batched design-space prediction: the representation-reuse economics of the
// paper turned into one product. SetSpace embeds the K candidate
// microarchitectures once and packs their [K x RepDim] representations into
// the GEMM engine's B panels (tensor.PackBT32); every sweep after that is a
// [P x D] x [K x D]^T product on those panels, which packs only the program
// side. Because every output element of the engine is the same ascending-k
// FMA chain however many rows and columns share the pass, and packing only
// moves elements, each dot is bitwise the one PredictTotalNs32 computes for
// that (program, candidate) pair. Each row of dots is then converted to ns
// in one vector pass (tensor.WidenDiv2) that keeps dotNs32's bits, so each
// sweep value is bitwise identical to PredictTotalNs32, which the sweep
// tests here and in internal/dse pin against the per-config oracle.

// PredictTotalNs32 is the float32 single-uarch predictor, the K=1 form of a
// sweep: sweep values and single predictions agree bitwise. It differs from
// PredictTotalNs only in the dot accumulation (a float32 FMA chain instead
// of a float64 loop); the drift between the two is pinned by the epsilon
// harness in sweep_test.go.
//
//perfvec:hotpath
func (f *Foundation) PredictTotalNs32(s *tensor.Slab32, progRep, uarchRep []float32) float64 {
	dot := tensor.MatMulBT32(s, tensor.Tensor32{Data: progRep, R: 1, C: len(progRep)},
		tensor.Tensor32{Data: uarchRep, R: 1, C: len(uarchRep)})
	return f.dotNs32(dot.Data[0])
}

// dotNs32 undoes the target scaling of a float32 predictor dot and converts
// ticks to ns: the same op sequence as PredictTotalNs, applied to the f32
// dot. It is the scalar oracle of the sweep's conversion, which runs the
// same two divides on whole rows through tensor.WidenDiv2 (8 AVX2 lanes at
// a time where the GEMM engine has them). The vector path keeps these bits:
// widening a float32 is exact, IEEE division is correctly rounded in every
// lane, and the kernel divides by the same two divisors in the same order.
//
//perfvec:hotpath
func (f *Foundation) dotNs32(v float32) float64 {
	return float64(v) / float64(f.Cfg.TargetScale) / sim.TickPerNs
}

// Sweeper is the reusable fleet-sweep engine: it embeds a candidate space
// once (one batched uarch-model forward), packs it into the GEMM engine's
// panels, and then serves every sweep as one product on them. Sweep and
// SweepBatch are safe for concurrent use — every call borrows a pooled
// slab — but SetSpace must not run concurrently with them: it repacks the
// panels in place. Callers that switch spaces under traffic (the serve
// layer) hold a writer lock across SetSpace.
type Sweeper struct {
	f  *Foundation
	um *UarchModel

	panels tensor.PackedBT32 // the space's [K x RepDim] representations, packed

	mu    sync.Mutex
	slabs []*tensor.Slab32 // free list of per-sweep GEMM slabs
	built int              // slab constructions; steady state stops growing
}

// NewSweeper builds a sweeper over the foundation's predictor and the given
// microarchitecture representation model (which must share the foundation's
// RepDim and be calibrated before SetSpace).
func NewSweeper(f *Foundation, um *UarchModel) *Sweeper {
	if um.RepDim != f.Cfg.RepDim {
		panic("perfvec: Sweeper rep dims differ")
	}
	return &Sweeper{f: f, um: um}
}

// SetSpace embeds cfgs as the sweeper's candidate space in one batched
// forward-only pass and packs the representations into the previous
// space's panels, so SetSpace is exclusive with concurrent sweeps. The
// pass runs on a slab of its own that dies with the call: sized for K
// candidates, it is several times what a sweep needs, and only the panels
// outlive it.
func (sw *Sweeper) SetSpace(cfgs []*uarch.Config) {
	if len(cfgs) == 0 {
		panic("perfvec: SetSpace requires a non-empty space")
	}
	var s tensor.Slab32
	tensor.PackBT32(&sw.panels, sw.um.Reps32(&s, cfgs))
}

// K returns the number of candidates in the embedded space (0 before the
// first SetSpace).
func (sw *Sweeper) K() int { return sw.panels.N() }

// Sweep evaluates progRep against the embedded space, writing per-candidate
// predicted nanoseconds into out[:K]: SweepBatch's product with one row,
// split across the tensor worker pool, allocation-free once the slab pool
// is warm.
//
//perfvec:hotpath
func (sw *Sweeper) Sweep(progRep []float32, out []float64) {
	reps, outs := [1][]float32{progRep}, [1][]float64{out}
	sw.SweepBatch(reps[:], outs[:], false)
}

// SweepBatch evaluates every program representation against the embedded
// space, writing out[p][:K]: the representations are gathered into one
// [P x RepDim] matrix and run as one product. serial keeps the product on
// the calling goroutine; otherwise the tensor worker pool splits it. Row p
// is bitwise what Sweep writes for progReps[p], at any worker count. Both
// panic before the first SetSpace.
//
//perfvec:hotpath
func (sw *Sweeper) SweepBatch(progReps [][]float32, out [][]float64, serial bool) {
	if len(out) != len(progReps) {
		panic("perfvec: SweepBatch out length mismatch")
	}
	if sw.K() == 0 {
		panic("perfvec: Sweep before SetSpace: the sweeper has no candidate space")
	}
	s := sw.acquireSlab()
	a := s.Mat(len(progReps), sw.panels.K())
	for p, r := range progReps {
		if len(r) != a.C || len(out[p]) < sw.K() {
			panic("perfvec: SweepBatch shape mismatch")
		}
		copy(a.Row(p), r)
	}
	var dots tensor.Tensor32
	if serial {
		dots = tensor.MatMulPackedBT32Serial(s, a, &sw.panels)
	} else {
		dots = tensor.MatMulPackedBT32(s, a, &sw.panels)
	}
	d0 := float64(sw.f.Cfg.TargetScale)
	for p := range progReps {
		tensor.WidenDiv2(out[p], dots.Row(p), d0, sim.TickPerNs)
	}
	sw.releaseSlab(s)
}

// acquireSlab borrows a pooled GEMM slab, building one on first use; the
// pool grows to the peak number of concurrent sweeps and then stops.
func (sw *Sweeper) acquireSlab() *tensor.Slab32 {
	sw.mu.Lock()
	if n := len(sw.slabs); n > 0 {
		s := sw.slabs[n-1]
		sw.slabs = sw.slabs[:n-1]
		sw.mu.Unlock()
		return s
	}
	sw.built++
	sw.mu.Unlock()
	return new(tensor.Slab32)
}

// releaseSlab returns a borrowed slab to the pool, reset.
func (sw *Sweeper) releaseSlab(s *tensor.Slab32) {
	s.Reset()
	sw.mu.Lock()
	sw.slabs = append(sw.slabs, s)
	sw.mu.Unlock()
}

// SlabStats reports how many GEMM slabs the sweeper has ever built — the
// pooling regression counter: a steady state that keeps building slabs is a
// leak in the borrow/release pairing.
func (sw *Sweeper) SlabStats() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.built
}
