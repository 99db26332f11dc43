package perfvec

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TrainResult reports per-epoch progress.
type TrainResult struct {
	TrainLoss []float64
	ValLoss   []float64
	BestEpoch int
}

// Trainer trains a foundation model and a microarchitecture representation
// table jointly on a Dataset.
type Trainer struct {
	Model *Foundation
	Table *Table
	// Naive disables instruction-representation reuse: each training step
	// predicts the latency on a single microarchitecture, so the encoder
	// runs K times more often for the same coverage (the §IV-B baseline).
	Naive bool
	// Quiet suppresses progress logging to w.
	Log io.Writer

	workers []*gradWorker    // lazily built data-parallel replicas
	tape    *tensor.Tape     // arena tape for the serial step paths
	params_ []*tensor.Tensor // cached master parameter list
	stepWG  sync.WaitGroup   // reused across sharded steps (no per-step alloc)
}

// shardJob is one minibatch shard handed to a gradWorker's persistent
// goroutine: the worker backpropagates the shard's loss scaled by frac and
// signals wg. serial keeps the whole shard on the worker's goroutine, for
// steps whose workers fill the cores. Plain struct over a channel —
// dispatching a step spawns no goroutines and allocates nothing.
type shardJob struct {
	d      *Dataset
	shard  []int
	frac   float32
	serial bool
	wg     *sync.WaitGroup
}

// gradWorker is one data-parallel training replica: a shadow of the model
// and table whose parameter tensors share Data with the master (weights are
// only read during forward/backward) but have their own Grad buffers, plus a
// private arena tape reused across steps — after the first minibatch each
// worker's step runs without allocating a single tensor (see tensor.Arena).
// Each worker owns a goroutine that lives for the Trainer's lifetime,
// parked on its jobs channel between steps; the per-step goroutine spawns
// (and their closure allocations) of the previous design are gone. The
// goroutine (and the replica it pins) is released by Trainer.Close.
type gradWorker struct {
	model  *Foundation
	table  *Table
	params []*tensor.Tensor
	tape   *tensor.Tape
	loss   float64
	jobs   chan shardJob
}

// run is the worker goroutine: one shard forward/backward per job. A
// serial job runs its batch assembly and every tape op on this goroutine:
// the other workers hold the other cores, so a split would only park.
func (w *gradWorker) run() {
	cfg := w.model.Cfg
	for job := range w.jobs {
		w.tape.Reset()
		w.tape.SetSerial(job.serial)
		batchWorkers := cfg.BatchWorkers
		if job.serial {
			batchWorkers = 1
		}
		xs, targets := job.d.Batch(w.tape, job.shard, cfg.Window, cfg.TargetScale, batchWorkers)
		reps := w.model.Forward(w.tape, xs)
		preds := tensor.MatMulBT(w.tape, reps, w.table.M)
		loss := tensor.Scale(w.tape, nn.MSE(w.tape, preds, targets), job.frac)
		w.tape.Backward(loss)
		w.loss = float64(loss.Data[0])
		job.wg.Done()
	}
}

// gradWorkers builds (once) the data-parallel replicas for stepReuse.
func (t *Trainer) gradWorkers() []*gradWorker {
	if t.workers != nil {
		return t.workers
	}
	n := t.Model.Cfg.GradWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n == 1 {
		t.workers = []*gradWorker{}
		return t.workers
	}
	master := t.params()
	for w := 0; w < n; w++ {
		// Structure-only replicas: the layer graph and shapes without the
		// random init, since Data is aliased to the master's right below.
		model := NewFoundationStruct(t.Model.Cfg)
		table := &Table{M: tensor.New(t.Table.M.Shape...)}
		params := append(model.Params(), table.M)
		for i, p := range params {
			p.Data = master[i].Data // share weights, not gradients
		}
		gw := &gradWorker{
			model: model, table: table, params: params, tape: tensor.NewTapeArena(),
			jobs: make(chan shardJob, 1),
		}
		go gw.run()
		t.workers = append(t.workers, gw)
	}
	return t.workers
}

// NewTrainer builds a trainer with a fresh table sized to the dataset.
func NewTrainer(model *Foundation, k int) *Trainer {
	return &Trainer{
		Model: model,
		Table: NewTable(k, model.Cfg.RepDim, model.Cfg.Seed+7),
	}
}

// Close releases the trainer's data-parallel worker goroutines and their
// shadow replicas (model copy, gradient buffers, arena pools). A Trainer is
// reusable after Close — the workers are rebuilt on the next sharded step —
// but programs that build many trainers (sweeps, repeated benchmarks,
// long-lived services) should Close each one so the parked goroutines and
// their warm arenas don't accumulate. Close must not be called concurrently
// with a training step.
func (t *Trainer) Close() {
	for _, w := range t.workers {
		close(w.jobs)
	}
	t.workers = nil
}

func (t *Trainer) params() []*tensor.Tensor {
	if t.params_ == nil {
		t.params_ = append(t.Model.Params(), t.Table.M)
	}
	return t.params_
}

// stepTape returns the trainer's persistent arena tape for the serial step
// paths, building it on first use.
func (t *Trainer) stepTape() *tensor.Tape {
	if t.tape == nil {
		t.tape = tensor.NewTapeArena()
	}
	return t.tape
}

// Train runs the configured number of epochs and keeps the parameters of the
// epoch with the lowest validation loss (§IV-D).
func (t *Trainer) Train(d *Dataset) *TrainResult {
	cfg := t.Model.Cfg
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	opt := nn.NewAdam(cfg.LR)
	sched := nn.StepDecay{Every: cfg.LRDecayStep, Factor: 0.1}
	params := t.params()

	res := &TrainResult{BestEpoch: -1}
	bestVal := float64(1e30)
	var bestParams [][]float32 // snapshot buffers, reused across epochs

	allIDs := append([]int(nil), d.train...)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sched.Apply(opt, epoch, cfg.LR)
		rng.Shuffle(len(allIDs), func(i, j int) { allIDs[i], allIDs[j] = allIDs[j], allIDs[i] })
		ids := allIDs
		if cfg.EpochSamples > 0 && cfg.EpochSamples < len(ids) {
			ids = ids[:cfg.EpochSamples]
		}

		var lossSum float64
		batches := 0
		for from := 0; from+cfg.BatchSize <= len(ids); from += cfg.BatchSize {
			batch := ids[from : from+cfg.BatchSize]
			if t.Naive {
				lossSum += t.stepNaive(d, batch, opt, rng)
			} else {
				lossSum += t.stepReuse(d, batch, opt)
			}
			batches++
		}
		if batches == 0 {
			// Dataset smaller than one batch: train on everything at once.
			if t.Naive {
				lossSum += t.stepNaive(d, ids, opt, rng)
			} else {
				lossSum += t.stepReuse(d, ids, opt)
			}
			batches = 1
		}
		trainLoss := lossSum / float64(batches)
		valLoss := t.Loss(d, d.val)
		res.TrainLoss = append(res.TrainLoss, trainLoss)
		res.ValLoss = append(res.ValLoss, valLoss)
		if t.Log != nil {
			fmt.Fprintf(t.Log, "epoch %2d: train %.5f val %.5f (lr %.2g)\n", epoch, trainLoss, valLoss, opt.LR())
		}
		if valLoss < bestVal {
			bestVal = valLoss
			res.BestEpoch = epoch
			bestParams = snapshotInto(bestParams, params)
		}
	}
	if bestParams != nil {
		restore(params, bestParams)
	}
	return res
}

// Step runs one reuse-form training minibatch (forward, backward, optimizer)
// and returns its loss. Exported for the benchmark harness: BenchmarkTrainStep
// and cmd/perfvec-bench time exactly this call.
//
//perfvec:hotpath
func (t *Trainer) Step(d *Dataset, batch []int, opt nn.Optimizer) float64 {
	return t.stepReuse(d, batch, opt)
}

// TapeHistogram reports the op-record kind histogram of the most recent
// serial training step (the step's tape is only cleared at the start of the
// next step, so the graph of the last one is still recorded). Empty before
// the first serial step — including when steps shard across gradient
// workers, whose tapes record only their own shard's graph. This is the
// record-tape profiling hook surfaced by cmd/perfvec-bench -tape-histogram.
func (t *Trainer) TapeHistogram() map[string]int {
	return t.tape.OpHistogram()
}

// stepReuse is the efficient training step of §IV-B: one encoder forward
// pass produces R_i, which is reused to predict the incremental latency on
// all K microarchitectures simultaneously via a single matrix product. With
// more than one gradient worker the minibatch is sharded: each worker
// backpropagates its shard's loss scaled by the shard's fraction of the
// batch, so the reduced gradient equals the full-batch MSE gradient, and the
// reduction accumulates in fixed worker order for run-to-run determinism at
// a given worker count. All step tensors come from per-tape arenas, so the
// steady-state step performs no tensor allocation at any worker count.
//
//perfvec:hotpath
func (t *Trainer) stepReuse(d *Dataset, batch []int, opt nn.Optimizer) float64 {
	cfg := t.Model.Cfg
	workers := t.gradWorkers()
	nW := len(workers)
	if nW > len(batch) {
		nW = len(batch)
	}
	if nW < 2 {
		tp := t.stepTape()
		tp.Reset() // recycle the previous step's tensors
		xs, targets := d.Batch(tp, batch, cfg.Window, cfg.TargetScale, cfg.BatchWorkers)
		reps := t.Model.Forward(tp, xs)               // [B x D]
		preds := tensor.MatMulBT(tp, reps, t.Table.M) // [B x K]
		loss := nn.MSE(tp, preds, targets)
		tp.Backward(loss)
		if cfg.ClipNorm > 0 {
			nn.ClipGradients(t.params(), cfg.ClipNorm)
		}
		opt.Step(t.params())
		return float64(loss.Data[0])
	}

	chunk := (len(batch) + nW - 1) / nW
	// Workers that fill the cores run their shards serially: a split of a
	// worker's op would only hand chunks to pool goroutines with no core.
	serial := nW >= runtime.GOMAXPROCS(0)
	for wi := 0; wi < nW; wi++ {
		from := wi * chunk
		to := min(from+chunk, len(batch))
		w := workers[wi]
		w.loss = 0
		if from >= to {
			continue
		}
		t.stepWG.Add(1)
		w.jobs <- shardJob{
			d: d, shard: batch[from:to],
			frac:   float32(to-from) / float32(len(batch)),
			serial: serial,
			wg:     &t.stepWG,
		}
	}
	t.stepWG.Wait()

	// Reduce shard gradients into the master parameters, one parameter at a
	// time, through the typed reduction kernel: element ranges split across
	// the worker pool (outer), gradient slots iterated in fixed order per
	// range (inner), so every element accumulates w0, w1, ... exactly like
	// the serial worker-order reduction — bitwise identical, but the ranges
	// run concurrently. Each range also zeroes the worker gradients it has
	// consumed. A KernelArgs block carries the master plus up to seven
	// worker gradients, so a parameter with more shard gradients than slots
	// reduces in consecutive slot groups, ascending worker order preserved
	// across groups. Unlike the previous per-parameter reduction closures,
	// dispatching the kernel allocates nothing (see tensor.ParallelKernel),
	// which is what keeps the multi-worker step as allocation-free as the
	// serial one.
	master := t.params()
	var total float64
	for wi := 0; wi < nW; wi++ {
		total += workers[wi].loss
	}
	for pi, p := range master {
		var g []float32 // EnsureGrad only for parameters a shard touched
		for wi := 0; wi < nW; {
			var ka tensor.KernelArgs
			slots := 0
			for ; wi < nW && slots < len(ka.S)-1; wi++ {
				if wgrad := workers[wi].params[pi].Grad; wgrad != nil {
					ka.S[1+slots] = wgrad
					slots++
				}
			}
			if slots == 0 {
				continue
			}
			if g == nil {
				g = p.EnsureGrad()
			}
			ka.S[0] = g
			ka.I[0] = slots
			tensor.ParallelKernel(len(g), len(g)*(slots+1), kGradReduce, ka)
		}
	}
	if cfg.ClipNorm > 0 {
		nn.ClipGradients(master, cfg.ClipNorm)
	}
	opt.Step(master)
	return total
}

// kGradReduce is the typed gradient-reduction kernel of stepReuse: S0 is the
// master gradient, S1..S[I0] one slot group of worker gradients, accumulated
// into the master in ascending slot order and zeroed as they are consumed.
// Per-element updates are independent across the partitioned range, so
// chunked execution is bitwise-deterministic at any pool size.
//
//perfvec:hotpath
func kGradReduce(s, e int, ka tensor.KernelArgs) {
	g := ka.S[0]
	for w := 1; w <= ka.I[0]; w++ {
		wgrad := ka.S[w]
		for i := s; i < e; i++ {
			g[i] += wgrad[i]
		}
		clear(wgrad[s:e])
	}
}

// stepNaive predicts one microarchitecture per step: the slow baseline whose
// cost scales linearly with K.
func (t *Trainer) stepNaive(d *Dataset, batch []int, opt nn.Optimizer, rng *rand.Rand) float64 {
	cfg := t.Model.Cfg
	tp := t.stepTape()
	tp.Reset()
	xs, targets := d.Batch(tp, batch, cfg.Window, cfg.TargetScale, cfg.BatchWorkers)
	j := rng.Intn(d.K)
	reps := t.Model.Forward(tp, xs)
	mj := tensor.SliceRows(tp, t.Table.M, j, j+1) // [1 x D]
	preds := tensor.MatMulBT(tp, reps, mj)        // [B x 1]
	tj := tensor.SliceCols(nil, targets, j, j+1)
	loss := nn.MSE(tp, preds, tj)
	tp.Backward(loss)
	if cfg.ClipNorm > 0 {
		nn.ClipGradients(t.params(), cfg.ClipNorm)
	}
	opt.Step(t.params())
	return float64(loss.Data[0])
}

// evalBatch is the number of samples Loss evaluates per forward pass.
const evalBatch = 256

// Loss evaluates the (reuse-form) MSE over the given sample ids without
// updating parameters. Evaluation batches run on the float32 inference
// graph (see batchLoss), sharded across the tensor worker pool by the typed
// kernel kLossShards — the model is read-only during evaluation, every
// shard computes exactly the batches the serial loop would, and the
// per-batch losses are reduced in ascending batch order, so the result is
// bitwise identical to the serial evaluation at any worker count, and to
// the tape-forward loss of the same batches.
//
// Each shard runs on a pooled Encoder, borrowed up front and returned in
// reverse order: which encoder serves which shard, and so how many encoders
// a call builds, depends only on GOMAXPROCS and len(ids), never on
// scheduling. Once the encoders' slabs are warm, evaluation allocates no
// activations.
//
//perfvec:hotpath
func (t *Trainer) Loss(d *Dataset, ids []int) float64 {
	if len(ids) == 0 {
		return 0
	}
	nChunks := (len(ids) + evalBatch - 1) / evalBatch
	shards := min(runtime.GOMAXPROCS(0), nChunks)
	// Locals, not reused Trainer fields: Loss stays safe to call from
	// concurrent goroutines, at the cost of two small slices and the job
	// per call.
	losses := make([]float64, nChunks) //perfvec:allow hotalloc -- per-call shard sums, sized by ids, kept local for concurrent Loss calls
	encs := make([]*Encoder, shards)   //perfvec:allow hotalloc -- per-call shard encoders, kept local for concurrent Loss calls
	for i := range encs {
		encs[i] = t.Model.AcquireEncoder()
	}
	j := &lossJob{d: d, table: t.Table.M, ids: ids, losses: losses, encs: encs} //perfvec:allow hotalloc -- one dispatch block per Loss call, not per batch; the batch loop is allocation-free
	tensor.ParallelKernel(shards, len(ids)*t.Model.Cfg.rowWork(), kLossShards, tensor.KernelArgs{X: j})
	for i := len(encs) - 1; i >= 0; i-- {
		t.Model.ReleaseEncoder(encs[i])
	}
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / float64(len(ids))
}

// lossJob is the argument block of Loss's shard dispatch (kLossShards'
// KernelArgs.X): the dataset and table, the evaluated ids, one loss slot per
// evalBatch chunk, and one borrowed encoder per shard.
type lossJob struct {
	d      *Dataset
	table  *tensor.Tensor
	ids    []int
	losses []float64
	encs   []*Encoder
}

// kLossShards evaluates shards [w0, w1) of a Loss call: shard w runs chunks
// w, w+shards, w+2*shards, ... on encs[w] and stores each chunk's summed
// loss in its slot. X=*lossJob.
//
//perfvec:hotpath
func kLossShards(w0, w1 int, ka tensor.KernelArgs) {
	j := ka.X.(*lossJob)
	shards := len(j.encs)
	for w := w0; w < w1; w++ {
		for c := w; c < len(j.losses); c += shards {
			from := c * evalBatch
			to := min(from+evalBatch, len(j.ids))
			j.losses[c] = j.encs[w].batchLoss(j.d, j.ids[from:to], j.table) * float64(to-from)
		}
	}
}

// batchLoss returns the reuse-form MSE of one evaluation batch, bitwise
// equal to a training step's tape loss on the same batch: each sample's
// window is its own segment of the window batch (the rows Dataset.Batch
// fills, zero before the program start), the forward is the float32
// inference graph (pinned bitwise to the tape forward), the predictions are
// a MatMulBT32 against the table, and the loop below is nn.MSE's Sub, Mul,
// float64-accumulated Sum and Scale(1/n). The explicit float32 conversions
// round every product where the tape ops store theirs, so no compiler may
// fuse them.
//
//perfvec:hotpath
func (e *Encoder) batchLoss(d *Dataset, ids []int, table *tensor.Tensor) float64 {
	targetScale := e.f.Cfg.TargetScale
	e.slab.Reset()
	w, f := e.f.Cfg.Window, d.FeatDim
	rows := e.slab.Mat(len(ids)*w, f)
	start := e.startBuf(len(ids))
	for b, id := range ids {
		p, i := d.sample(id)
		lo := i - (w - 1) // instruction of the window's first row
		src := max(lo, 0)
		copy(rows.Data[(b*w+src-lo)*f:], p.Features[src*f:(i+1)*f])
		start[b] = int32(b * w)
	}
	xs := nn.Windows[tensor.Tensor32]{Rows: rows, Start: start, Len: w}
	table32 := tensor.Tensor32{Data: table.Data, R: table.Rows(), C: table.Cols()}
	preds := tensor.MatMulBT32(&e.slab, e.forward(xs, false), table32)
	var sum float64
	for b, id := range ids {
		p, i := d.sample(id)
		for j, y := range preds.Row(b) {
			diff := y - float32(p.Targets[i*d.K+j]*targetScale)
			sum += float64(float32(diff * diff))
		}
	}
	return float64(float32(sum) * (1 / float32(len(ids)*d.K)))
}

// snapshot returns a fresh deep copy of the parameters' Data slices.
func snapshot(params []*tensor.Tensor) [][]float32 {
	return snapshotInto(nil, params)
}

// snapshotInto copies the parameters' Data into dst, reusing dst's buffers
// when present so the per-epoch best-model snapshot stops reallocating the
// whole parameter set on every improvement; it returns dst (built on first
// use).
func snapshotInto(dst [][]float32, params []*tensor.Tensor) [][]float32 {
	if dst == nil {
		dst = make([][]float32, len(params))
	}
	for i, p := range params {
		if len(dst[i]) != len(p.Data) {
			dst[i] = make([]float32, len(p.Data))
		}
		copy(dst[i], p.Data)
	}
	return dst
}

func restore(params []*tensor.Tensor, snap [][]float32) {
	for i, p := range params {
		copy(p.Data, snap[i])
	}
}
