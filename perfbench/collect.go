package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/perfvec"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// collect-train: what perfvec-train runs, at its default instruction budget
// and training microarchitectures. Rounds of perfvec.CollectAll take the
// training programs through the emulator, the feature extractor and the
// simulator on every training microarchitecture; the first round's data
// becomes a Dataset, and a Trainer.Train of a fresh model (fixed epochs and
// samples) follows every collection. Between the two, every round times
// sim.SimulateAll alone on each program's trace, recorded at set-up, one
// program after another, so the simulator has a latency of its own besides
// the collection rate it shares with the emulator and the feature
// extractor.

// gradWorkers is the training gradient-worker count, fixed so that the
// training numerics (and train_val_loss) repeat exactly on any host.
const gradWorkers = 2

// Each training run is trainEpochs epochs of trainEpochSamples samples,
// each epoch followed by Train's validation pass over the 5% held out (as in
// perfvec-train, about 8700 samples here). perfvec-train's 10 epochs of
// 100000 samples would make one round take minutes; one epoch of 8192
// keeps a round near 1.3 s at the reference box's slow speed level, with
// collection and the simulator phase about 30% of it, so a run has
// about 20 rounds to take medians over.
const (
	trainEpochs       = 1
	trainEpochSamples = 8192
)

type collectState struct {
	plan    collectPlan
	benches []bench.Benchmark
	cfgs    []*uarch.Config
	cfg     perfvec.Config
	recs    [][]trace.Record // each program's trace, for the simulator phase
}

func setupCollect(seed uint64) (workload, error) {
	s := &collectState{plan: newCollectPlan(seed), benches: bench.Training()}
	s.cfgs = collectUarchs()
	s.cfg = perfvec.DefaultConfig()
	s.cfg.GradWorkers = gradWorkers
	s.cfg.Epochs = trainEpochs
	s.cfg.EpochSamples = trainEpochSamples
	for _, b := range s.benches {
		recs, err := b.Trace(1, s.plan.MaxInsts)
		if err != nil {
			return nil, err
		}
		s.recs = append(s.recs, recs)
	}

	// Warm-up: a small collection and one short training run start the
	// worker pools and size the arenas.
	pds, err := perfvec.CollectAll(s.benches, s.cfgs, 1, 256)
	if err != nil {
		return nil, err
	}
	d, err := perfvec.NewDataset(pds, 0.05, s.plan.SplitSeed)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.Epochs, cfg.EpochSamples = 1, 512
	t := perfvec.NewTrainer(perfvec.NewFoundation(cfg), len(s.cfgs))
	t.Train(d)
	t.Close()
	return s, nil
}

func (s *collectState) close() {}

// collectSplit is perfvec.CollectAll with each program's emulator, feature
// and simulator calls made separately (as perfvec.CollectProgramData makes
// them) so that each gets a span. It returns the data and the simulated
// cycles summed over programs and microarchitectures.
func (s *collectState) collectSplit(tr *Tracer) ([]*perfvec.ProgramData, float64, error) {
	out := make([]*perfvec.ProgramData, len(s.benches))
	errs := make([]error, len(s.benches))
	cycles := make([]float64, len(s.benches))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, b := range s.benches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], cycles[i], errs[i] = s.collectOne(b, tr)
		}()
	}
	wg.Wait()
	var total float64
	for _, c := range cycles {
		total += c
	}
	return out, total, errors.Join(errs...)
}

func (s *collectState) collectOne(b bench.Benchmark, tr *Tracer) (*perfvec.ProgramData, float64, error) {
	sp := tr.Begin("collect.program", -1, 0)
	defer tr.End(sp)
	e := tr.Begin("emu.trace", sp, 0)
	recs, err := b.Trace(1, s.plan.MaxInsts)
	tr.End(e)
	if err != nil {
		return nil, 0, err
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("%s produced an empty trace", b.Name)
	}
	e = tr.Begin("features.extract", sp, 0)
	feats := features.ExtractAll(recs)
	tr.End(e)
	e = tr.Begin("sim.simulate", sp, 0)
	results := sim.SimulateAll(s.cfgs, recs, true)
	tr.End(e)

	n, k := len(recs), len(s.cfgs)
	pd := &perfvec.ProgramData{
		Name: b.Name, N: n, FeatDim: features.NumFeatures, K: k,
		Features: feats,
		Targets:  make([]float32, n*k),
		TotalNs:  make([]float64, k),
	}
	var cycles float64
	for j, res := range results {
		pd.TotalNs[j] = res.TotalNs
		cycles += float64(res.Stats.Cycles)
		for i, v := range res.Incremental {
			pd.Targets[i*k+j] = v
		}
	}
	tr.Add("emu.insts", float64(n))
	tr.Add("features.rows", float64(n))
	tr.Add("sim.insts", float64(n*k))
	return pd, cycles, nil
}

// simulate runs sim.SimulateAll on every program's recorded trace, one
// program at a time. It returns the simulated cycles summed over programs
// and microarchitectures.
func (s *collectState) simulate(tr *Tracer) float64 {
	var cycles float64
	for _, recs := range s.recs {
		sp := tr.Begin("sim.simulate", -1, 0)
		results := sim.SimulateAll(s.cfgs, recs, true)
		tr.End(sp)
		tr.Add("sim.insts", float64(len(recs)*len(s.cfgs)))
		for _, res := range results {
			cycles += float64(res.Stats.Cycles)
		}
	}
	return cycles
}

// epochClock is the trainer's log writer: Train writes one line per epoch,
// so the gaps between writes are the epoch times.
type epochClock struct {
	last   time.Time
	ms     []float64
	tr     *Tracer
	parent int // the Train span
}

func (c *epochClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.ms = append(c.ms, float64(now.Sub(c.last))/1e6)
	c.tr.Record("perfvec.train.epoch", c.last, now, c.parent, 0)
	c.last = now
	return len(p), nil
}

func (s *collectState) run(budget time.Duration, tr *Tracer, r *Result) error {
	// Rounds until the budget is spent: a collection, the simulator alone,
	// then a training run of a fresh model on the dataset built from the
	// first collection (every collection gives the same data). Interleaving
	// the phases puts all medians under the same host conditions.
	var collectRate, simMs, trainRate, valLoss []float64
	var pds []*perfvec.ProgramData
	var d *perfvec.Dataset
	var cycles float64 // of the first round's simulator phase
	cyclesRepeat := true
	clock := &epochClock{tr: tr}
	var last *perfvec.Trainer
	start := time.Now()
	for time.Since(start) < budget || len(trainRate) < 2 {
		pds = nil
		runtime.GC() // one round's garbage is not collected in the next one's time
		r.roundStart()
		t0 := time.Now()
		var err error
		var splitCycles float64
		if tr == nil {
			pds, err = perfvec.CollectAll(s.benches, s.cfgs, 1, s.plan.MaxInsts)
		} else {
			pds, splitCycles, err = s.collectSplit(tr)
		}
		if err != nil {
			return err
		}
		insts := 0
		for _, p := range pds {
			insts += p.N
		}
		collectRate = append(collectRate, float64(insts)/time.Since(t0).Seconds())
		r.Attempted++

		t0 = time.Now()
		c := s.simulate(tr)
		simMs = append(simMs, float64(time.Since(t0))/1e6)
		if cycles == 0 {
			cycles = c
		}
		cyclesRepeat = cyclesRepeat && c == cycles && (tr == nil || splitCycles == cycles)
		r.Attempted += len(s.recs)
		if d == nil {
			if d, err = perfvec.NewDataset(pds, 0.05, s.plan.SplitSeed); err != nil {
				return err
			}
		}

		if last != nil {
			last.Close()
		}
		runtime.GC()
		t := perfvec.NewTrainer(perfvec.NewFoundation(s.cfg), len(s.cfgs))
		t.Log = clock
		t0 = time.Now()
		clock.last = t0
		sp := tr.Begin("perfvec.train", -1, 0)
		clock.parent = sp
		res := t.Train(d)
		tr.End(sp)
		trainRate = append(trainRate, float64(trainEpochs*trainEpochSamples)/time.Since(t0).Seconds())
		valLoss = append(valLoss, res.ValLoss[res.BestEpoch])
		last = t
		r.Attempted++
		r.roundEnd()
	}
	defer last.Close()
	r.timedEnd()

	r.Metrics["insts_per_s"] = median(collectRate)
	r.Metrics["model_insts_per_s"] = median(trainRate)
	r.Metrics["op_p50_ms"] = median(simMs)
	r.figure("collect_insts_per_s", "1/s", median(collectRate))
	r.figure("sim_phase_p50_ms", "ms", median(simMs))
	r.figure("train_samples_per_s", "1/s", median(trainRate))
	r.figure("train_epoch_p50_ms", "ms", percentile(append([]float64(nil), clock.ms...), 50))
	r.figure("train_val_loss", "loss", valLoss[0])
	r.figure("uarchs", "count", float64(len(s.cfgs)))
	r.figure("dataset_samples", "count", float64(d.TrainSize()+d.ValSize()))

	// Checks: training repeats bitwise; every simulator phase (and, traced,
	// every split collection) gives the same cycles; the split collection
	// (the traced path) equals CollectAll and gives those cycles too.
	same := true
	for _, v := range valLoss {
		same = same && math.Float64bits(v) == math.Float64bits(valLoss[0])
	}
	r.check("train_val_loss repeats", fails(same), "%d rounds, %v", len(valLoss), valLoss[0])
	ref, err := perfvec.CollectAll(s.benches, s.cfgs, 1, s.plan.MaxInsts)
	if err != nil {
		return err
	}
	split, c, err := s.collectSplit(nil)
	if err != nil {
		return err
	}
	r.check("sim.cycles repeat across rounds", fails(cyclesRepeat && c == cycles), "%v", c)
	ok := len(ref) == len(split)
	for i := range ref {
		ok = ok && sameProgramData(ref[i], split[i]) && sameProgramData(ref[i], pds[i])
	}
	r.check("split collect = CollectAll", fails(ok), "%d programs x %d uarchs", len(ref), len(s.cfgs))
	r.figure("sim.cycles", "count", c)

	if tr != nil {
		spanLayers(tr, r)
		r.Layer["sim.cycles"] = c
		r.Layer["perfvec.train.epoch_s"] = percentile(clock.ms, 50) / 1e3
		r.Layer["perfvec.train.samples"] = float64(trainEpochs * trainEpochSamples * len(trainRate))
		r.Layer["perfvec.train.val_loss"] = valLoss[0]
		// Dataset.Batch and Trainer.Loss run inside Train; they are timed
		// here by calling them directly: one epoch's batches, and one
		// validation-sized loss.
		ids := newRand(uint64(s.plan.SplitSeed), streamCollect).Perm(d.TrainSize() + d.ValSize())
		tp := tensor.NewTapeArena()
		for b := 0; b+s.cfg.BatchSize <= trainEpochSamples; b += s.cfg.BatchSize {
			tp.Reset()
			sp := tr.Begin("perfvec.dataset.batch", -1, 0)
			d.Batch(tp, ids[b:b+s.cfg.BatchSize], s.cfg.Window, s.cfg.TargetScale, s.cfg.BatchWorkers)
			tr.End(sp)
		}
		r.Layer["perfvec.dataset.batch_s"] = tr.Busy("perfvec.dataset.batch").Seconds()
		sp := tr.Begin("perfvec.train.val", -1, 0)
		last.Loss(d, ids[:d.ValSize()])
		tr.End(sp)
		r.Layer["perfvec.train.val_s"] = tr.Busy("perfvec.train.val").Seconds()
	}
	return nil
}

func sameProgramData(a, b *perfvec.ProgramData) bool {
	if a.Name != b.Name || a.N != b.N || a.K != b.K || !sameBits32(a.Features, b.Features) || !sameBits32(a.Targets, b.Targets) {
		return false
	}
	for j := range a.TotalNs {
		if math.Float64bits(a.TotalNs[j]) != math.Float64bits(b.TotalNs[j]) {
			return false
		}
	}
	return true
}
