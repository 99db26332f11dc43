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
	bsz := len(ids)
	xs := tp.Tensors(window)
	for t := range xs {
		xs[t] = tensor.Zeros(tp, bsz, d.FeatDim)
	}
	targets := tensor.Zeros(tp, bsz, d.K)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, bsz))
	// The shards dispatch as a typed kernel, not a closure: the call's
	// arguments travel in a recycled batchFill, so assembly allocates
	// nothing beyond the tensors at any worker count. One worker runs
	// inline.
	var j *batchFill
	select {
	case j = <-batchFills:
	default:
		j = new(batchFill) //perfvec:allow hotalloc -- first use per concurrent Batch call; recycled below
	}
	*j = batchFill{d: d, xs: xs, targets: targets, ids: ids, scale: targetScale}
	shard := (bsz + workers - 1) / workers
	tensor.ParallelKernel(workers, bsz*window*d.FeatDim, kFillBatch,
		tensor.KernelArgs{I: [6]int{shard, bsz}, X: j})
	*j = batchFill{} // drop the references to this call's data
	select {
	case batchFills <- j:
	default: // more concurrent calls than free slots
	}
	return xs, targets
}

// batchFill is the argument block of one Batch call (kFillBatch's
// KernelArgs.X).
type batchFill struct {
	d       *Dataset
	xs      []*tensor.Tensor
	targets *tensor.Tensor
	ids     []int
	scale   float32
}

// batchFills is the free list of batchFill blocks, in place of a
// sync.Pool: a pool drops its contents at every GC, and Batch's fresh
// tensors (nil tape) make GCs frequent enough that refilling one would cost
// an allocation every few calls. One block is live per concurrent Batch
// call (one per gradient worker in training); 64 slots cover any worker
// count in use, and a call beyond them allocates a block and drops it.
var batchFills = make(chan *batchFill, 64)

// kFillBatch assembles the rows of Batch shards [s, e): every window
// position of each sample plus its scaled target row. X=*batchFill,
// I0=shard size in rows, I1=batch size.
//
//perfvec:hotpath
func kFillBatch(s, e int, ka tensor.KernelArgs) {
	j := ka.X.(*batchFill)
	d := j.d
	b0, b1 := s*ka.I[0], min(e*ka.I[0], ka.I[1])
	for t, x := range j.xs {
		d.fillWindow(x.Data, j.ids, t, len(j.xs), b0, b1)
	}
	for b := b0; b < b1; b++ {
		p, i := d.sample(j.ids[b])
		for k := 0; k < d.K; k++ {
			j.targets.Set(b, k, p.Targets[i*d.K+k]*j.scale)
		}
	}
}

// fillWindow writes window position t (of `window`, oldest first) for
// samples ids[b0:b1] into rows [b0, b1) of x, the row-major
// [len(ids) x FeatDim] matrix of that position. Positions before program
// start are skipped: x arrives zeroed, so that is the zero padding. Batch
// assembles its windows through it; Trainer.Loss does not (batchLoss
// copies each sample's window rows into its slab itself).
//
//perfvec:hotpath
func (d *Dataset) fillWindow(x []float32, ids []int, t, window, b0, b1 int) {
	f := d.FeatDim
	for b := b0; b < b1; b++ {
		p, i := d.sample(ids[b])
		if src := i - (window - 1) + t; src >= 0 {
			copy(x[b*f:(b+1)*f], p.Features[src*f:(src+1)*f])
		}
	}
}

// sample maps a flat sample id to its program and instruction index.
//
//perfvec:hotpath
func (d *Dataset) sample(id int) (*ProgramData, int) {
	return d.Programs[d.progOf[id]], int(d.instOf[id])
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
