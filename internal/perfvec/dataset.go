package perfvec

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// ProgramData is one program's featurized trace plus its aligned
// incremental-latency targets on K microarchitectures — the unit of data the
// paper's representation-reuse training consumes (§IV-B: "execute the same
// program on all sampled microarchitectures to obtain instruction latencies
// of the same trace").
type ProgramData struct {
	Name     string
	N        int       // dynamic instructions
	FeatDim  int       // features per instruction
	K        int       // microarchitectures
	Features []float32 // [N x FeatDim]
	Targets  []float32 // [N x K] incremental latencies, 0.1 ns ticks
	// TotalNs[k] is the simulator's ground-truth execution time.
	TotalNs []float64
}

// CollectProgramData traces the benchmark once (the logical trace is
// microarchitecture-independent), featurizes it once, and simulates it on
// every configuration in parallel.
func CollectProgramData(b bench.Benchmark, cfgs []*uarch.Config, scale, maxInsts int) (*ProgramData, error) {
	recs, err := b.Trace(scale, maxInsts)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("perfvec: %s produced an empty trace", b.Name)
	}
	feats := features.ExtractAll(recs)
	results := sim.SimulateAll(cfgs, recs, true)

	n, k := len(recs), len(cfgs)
	pd := &ProgramData{
		Name: b.Name, N: n, FeatDim: features.NumFeatures, K: k,
		Features: feats,
		Targets:  make([]float32, n*k),
		TotalNs:  make([]float64, k),
	}
	for j, res := range results {
		pd.TotalNs[j] = res.TotalNs
		for i, v := range res.Incremental {
			pd.Targets[i*k+j] = v
		}
	}
	return pd, nil
}

// CollectFeatures traces and featurizes a benchmark without simulating any
// microarchitecture — the prediction-only form used when a program's
// representation is needed but no ground-truth targets are (e.g. the DSE
// targets of §VI-A).
func CollectFeatures(b bench.Benchmark, scale, maxInsts int) (*ProgramData, error) {
	recs, err := b.Trace(scale, maxInsts)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("perfvec: %s produced an empty trace", b.Name)
	}
	return &ProgramData{
		Name: b.Name, N: len(recs), FeatDim: features.NumFeatures,
		Features: features.ExtractAll(recs),
	}, nil
}

// CollectAll gathers ProgramData for several benchmarks concurrently
// through CollectProgramData, bounded by GOMAXPROCS.
func CollectAll(benches []bench.Benchmark, cfgs []*uarch.Config, scale, maxInsts int) ([]*ProgramData, error) {
	out := make([]*ProgramData, len(benches))
	errs := make([]error, len(benches))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b bench.Benchmark) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = CollectProgramData(b, cfgs, scale, maxInsts)
		}(i, b)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// Dataset is a training corpus: several programs' data over the same K
// microarchitectures, with a deterministic train/validation split.
type Dataset struct {
	Programs []*ProgramData
	K        int
	FeatDim  int

	// index maps a flat sample id to (program, instruction).
	progOf []int32
	instOf []int32
	train  []int // sample ids
	val    []int
}

// NewDataset assembles programs into a dataset, holding out valFrac of the
// samples (paper: 5%) for validation.
func NewDataset(programs []*ProgramData, valFrac float64, seed int64) (*Dataset, error) {
	if len(programs) == 0 {
		return nil, errors.New("perfvec: dataset needs at least one program")
	}
	d := &Dataset{Programs: programs, K: programs[0].K, FeatDim: programs[0].FeatDim}
	total := 0
	for _, p := range programs {
		if p.K != d.K {
			return nil, fmt.Errorf("perfvec: program %s has %d uarchs, want %d", p.Name, p.K, d.K)
		}
		if p.FeatDim != d.FeatDim {
			return nil, fmt.Errorf("perfvec: program %s has %d features, want %d", p.Name, p.FeatDim, d.FeatDim)
		}
		total += p.N
	}
	d.progOf = make([]int32, total)
	d.instOf = make([]int32, total)
	idx := 0
	for pi, p := range programs {
		for i := 0; i < p.N; i++ {
			d.progOf[idx] = int32(pi)
			d.instOf[idx] = int32(i)
			idx++
		}
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(total)
	nVal := int(float64(total) * valFrac)
	d.val = perm[:nVal]
	d.train = perm[nVal:]
	return d, nil
}

// TrainSize returns the number of training samples.
func (d *Dataset) TrainSize() int { return len(d.train) }

// ValSize returns the number of validation samples.
func (d *Dataset) ValSize() int { return len(d.val) }

// Subsample returns a dataset view whose training set is reduced to frac of
// the original — the data-volume ablation of §V-B.
func (d *Dataset) Subsample(frac float64) *Dataset {
	cp := *d
	n := int(float64(len(d.train)) * frac)
	if n < 1 {
		n = 1
	}
	cp.train = d.train[:n]
	return &cp
}

// Batch materializes the window tensors and target matrix for sample ids.
// xs[t] is the [B x FeatDim] feature tensor of window position t (oldest
// first); windows are zero-padded at program start. targets is [B x K],
// scaled by targetScale. The tensors — and the xs slice itself — are
// allocated through tp's arena when it has one (they are step-lifetime: the
// trainer recycles them on the next Tape.Reset); a nil tp allocates fresh
// tensors the caller owns.
//
// Window assembly is sharded across `workers` contiguous id ranges
// dispatched through the tensor worker pool (0 = GOMAXPROCS, 1 = serial).
// Shard boundaries depend only on (len(ids), workers) and every output row
// is an independent copy written by exactly one shard, so the assembled
// tensors are bitwise identical to the serial path at any worker count.
//
//perfvec:hotpath
func (d *Dataset) Batch(tp *tensor.Tape, ids []int, window int, targetScale float32, workers int) ([]*tensor.Tensor, *tensor.Tensor) {
	// Locals, not named results: a closure capturing named result variables
	// forces them into heap boxes on every call, even on the serial path.
	bsz := len(ids)
	xs := tp.Tensors(window)
	for t := range xs {
		xs[t] = tensor.Zeros(tp, bsz, d.FeatDim)
	}
	targets := tensor.Zeros(tp, bsz, d.K)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > bsz {
		workers = bsz
	}
	if workers <= 1 {
		// Direct call, no closure: the serial batch path is part of the
		// allocation-free training step.
		d.fillWindows(xs, targets, ids, window, targetScale, 0, bsz)
		return xs, targets
	}
	shard := (bsz + workers - 1) / workers
	tensor.Parallel(workers, func(w0, w1 int) { //perfvec:allow hotalloc -- sharded path only; the serial batch path above is the allocation-free one (see the locals comment)
		for w := w0; w < w1; w++ {
			from := w * shard
			to := min(from+shard, bsz)
			if from < to {
				d.fillWindows(xs, targets, ids, window, targetScale, from, to)
			}
		}
	})
	return xs, targets
}

// fillWindows assembles output rows [b0, b1) of a Batch call: one window of
// feature rows per sample (zero-padded before program start) plus the scaled
// target row.
func (d *Dataset) fillWindows(xs []*tensor.Tensor, targets *tensor.Tensor, ids []int, window int, targetScale float32, b0, b1 int) {
	for b := b0; b < b1; b++ {
		id := ids[b]
		p := d.Programs[d.progOf[id]]
		i := int(d.instOf[id])
		for t := 0; t < window; t++ {
			src := i - (window - 1) + t
			if src < 0 {
				continue // zero padding before program start
			}
			copy(xs[t].Row(b), p.Features[src*d.FeatDim:(src+1)*d.FeatDim])
		}
		for j := 0; j < d.K; j++ {
			targets.Set(b, j, p.Targets[i*d.K+j]*targetScale)
		}
	}
}

// WindowsFor materializes input windows for instructions [from, to) of a
// single program — used for representation generation at inference time.
// An empty range (from >= to) returns nil. The window tensors and the
// []*Tensor list itself are drawn through tp (arena-pooled on arena tapes,
// like Dataset.Batch's windows; step-lifetime — valid only until tp's next
// Reset); a nil tp allocates fresh.
func WindowsFor(tp *tensor.Tape, p *ProgramData, from, to, window int) []*tensor.Tensor {
	bsz := to - from
	if bsz <= 0 {
		return nil
	}
	xs := tp.Tensors(window)
	for t := range xs {
		xs[t] = tensor.Zeros(tp, bsz, p.FeatDim)
	}
	for b := 0; b < bsz; b++ {
		i := from + b
		for t := 0; t < window; t++ {
			src := i - (window - 1) + t
			if src < 0 {
				continue
			}
			copy(xs[t].Row(b), p.Features[src*p.FeatDim:(src+1)*p.FeatDim])
		}
	}
	return xs
}
