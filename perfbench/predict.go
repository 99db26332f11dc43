package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/features"
	"repro/internal/perfvec"
	"repro/internal/uarch"
)

// predict-unseen: the paper's "learn once, predict anywhere" path and its
// prediction-speed table. Each request takes one raw unseen program through
// the emulator and the feature extractor, encodes it on the f32 engine and
// predicts it on every table microarchitecture; after each request the
// representations are swept over a generated design space
// (sweepsPerRequest times, each call timed) and the program is re-encoded
// and predicted on the int8 engine.

// tableUarchs is the size of the serving table (perfvec-serve's default).
const tableUarchs = 9

// driftBoundQ8 is the int8 drift bound the repository pins: range-normalized
// |q8 - f64| / maxAbs(rep64).
const driftBoundQ8 = 5e-2

// sweepsPerRequest is how many times the representations are swept after
// each f32 request. One sweep of every unseen program over the space takes
// about a millisecond on the reference box, so the sweep latency is the
// median of many calls.
const sweepsPerRequest = 8

type predictState struct {
	plan    predictPlan
	progs   []bench.Benchmark
	f       *perfvec.Foundation
	table   *perfvec.Table
	um      *perfvec.UarchModel
	sw      *perfvec.Sweeper
	space   []*uarch.Config
	enc     *perfvec.Encoder
	genTime time.Duration // uarch.GenerateSpace
	setTime time.Duration // Sweeper.SetSpace
}

func setupPredict(seed uint64) (workload, error) {
	s := &predictState{plan: newPredictPlan(seed)}
	for _, name := range s.plan.Programs {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		s.progs = append(s.progs, b)
	}
	cfg := perfvec.DefaultConfig()
	s.f = perfvec.NewFoundation(cfg)
	s.table = perfvec.NewTable(tableUarchs, cfg.RepDim, 0)
	s.um = perfvec.NewUarchModel(cfg.RepDim, 32, 0)
	s.um.Calibrate(uarch.GenerateSpace(uarch.SpaceSpec{Size: 512, Seed: 1}))
	t0 := time.Now()
	s.space = uarch.GenerateSpace(s.plan.Space)
	s.genTime = time.Since(t0)
	s.sw = perfvec.NewSweeper(s.f, s.um)
	t0 = time.Now()
	s.sw.SetSpace(s.space)
	s.setTime = time.Since(t0)

	// Warm-up: one request on each engine builds the encoder's slabs and
	// the int8 weight image, and one sweep builds a GEMM slab.
	s.enc = s.f.AcquireEncoder()
	pd, err := perfvec.CollectFeatures(s.progs[0], 1, 256)
	if err != nil {
		return nil, err
	}
	rep := [][]float32{make([]float32, cfg.RepDim)}
	s.enc.EncodePrograms32([]*perfvec.ProgramData{pd}, rep)
	s.enc.EncodeProgramsQ8([]*perfvec.ProgramData{pd}, rep)
	s.sw.Sweep(rep[0], make([]float64, s.sw.K()))
	return s, nil
}

func (s *predictState) close() { s.f.ReleaseEncoder(s.enc) }

// collect is perfvec.CollectFeatures, split into its emulator and feature
// calls when tracing so that each gets a span.
func (s *predictState) collect(b bench.Benchmark, tr *Tracer, parent int, req int64) (*perfvec.ProgramData, error) {
	if tr == nil {
		return perfvec.CollectFeatures(b, 1, s.plan.MaxInsts)
	}
	sp := tr.Begin("emu.trace", parent, req)
	recs, err := b.Trace(1, s.plan.MaxInsts)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s produced an empty trace", b.Name)
	}
	tr.Add("emu.insts", float64(len(recs)))
	sp = tr.Begin("features.extract", parent, req)
	feats := features.ExtractAll(recs)
	tr.End(sp)
	tr.Add("features.rows", float64(len(recs)))
	return &perfvec.ProgramData{Name: b.Name, N: len(recs), FeatDim: features.NumFeatures, Features: feats}, nil
}

// predictAll predicts one program representation on every table
// microarchitecture.
func (s *predictState) predictAll(rep []float32, ns []float64, tr *Tracer, parent int, req int64) {
	sp := tr.Begin("perfvec.predict", parent, req)
	for j := range ns {
		ns[j] = s.f.PredictTotalNs(rep, s.table.Rep(j))
	}
	tr.End(sp)
	tr.Add("perfvec.predict.calls", float64(len(ns)))
}

func (s *predictState) run(budget time.Duration, tr *Tracer, r *Result) error {
	d := s.f.Cfg.RepDim
	n := len(s.progs)
	pds := make([]*perfvec.ProgramData, n)
	reps := make([][]float32, n)
	for i := range reps {
		reps[i] = make([]float32, d)
	}
	ns := make([]float64, tableUarchs)
	sweep := make([][]float64, n)
	for i := range sweep {
		sweep[i] = make([]float64, s.sw.K())
	}
	repsQ8 := make([][]float32, n)
	for i := range repsQ8 {
		repsQ8[i] = make([]float32, d)
	}

	// Requests until the budget is spent, cycling through the programs, at
	// least once through all of them. Each program is predicted on the f32
	// path, then the representations are swept over the design space, then
	// the program is re-encoded and predicted on the int8 engine.
	// Interleaving the three at request granularity, rather than timing one
	// after the other, puts all medians under the same host conditions. The
	// sweeps before the first cycle ends include representations not yet
	// filled in; a sweep costs the same whatever the values.
	var reqMs, sweepMs, f32Rate, sweepRate, q8Rate []float64
	var req int64
	start := time.Now()
	for k := 0; time.Since(start) < budget || k < n; k++ {
		i, b := k%n, s.progs[k%n]
		runtime.GC() // one request's garbage is not collected in the next one's time
		r.roundStart()
		req++
		t0 := time.Now()
		sp := tr.Begin("predict.request", -1, req)
		pd, err := s.collect(b, tr, sp, req)
		if err != nil {
			return err
		}
		e := tr.Begin("perfvec.encode", sp, req)
		s.enc.EncodePrograms32([]*perfvec.ProgramData{pd}, reps[i:i+1])
		tr.End(e)
		tr.Add("perfvec.encode.rows", float64(pd.N))
		tr.Add("perfvec.encode.batches", 1)
		s.predictAll(reps[i], ns, tr, sp, req)
		tr.End(sp)
		el := time.Since(t0)
		reqMs = append(reqMs, float64(el)/1e6)
		f32Rate = append(f32Rate, float64(pd.N)/el.Seconds())
		pds[i] = pd

		var configs int
		t0 = time.Now()
		for range sweepsPerRequest {
			t := time.Now()
			sp := tr.Begin("dse.sweep", -1, 0)
			configs = dse.SweepPrograms(s.sw, reps, sweep, 0)
			tr.End(sp)
			sweepMs = append(sweepMs, float64(time.Since(t))/1e6)
			tr.Add("dse.sweep.configs", float64(configs))
		}
		sweepRate = append(sweepRate, float64(sweepsPerRequest*configs)/time.Since(t0).Seconds())

		runtime.GC() // the f32 request's garbage is not collected in the int8 one's time
		req++
		t0 = time.Now()
		sp = tr.Begin("predict.request_q8", -1, req)
		e = tr.Begin("perfvec.encode_q8", sp, req)
		s.enc.EncodeProgramsQ8([]*perfvec.ProgramData{pd}, repsQ8[i:i+1])
		tr.End(e)
		tr.Add("perfvec.encode_q8.rows", float64(pd.N))
		tr.Add("perfvec.encode_q8.batches", 1)
		s.predictAll(repsQ8[i], ns, tr, sp, req)
		tr.End(sp)
		q8Rate = append(q8Rate, float64(pd.N)/time.Since(t0).Seconds())
		r.Attempted += 2 + sweepsPerRequest
		r.roundEnd()
	}

	r.timedEnd()
	r.Metrics["insts_per_s"] = median(f32Rate)
	r.Metrics["model_insts_per_s"] = median(q8Rate)
	r.Metrics["op_p50_ms"] = percentile(sweepMs, 50)
	r.figure("predict_insts_per_s", "1/s", median(f32Rate))
	r.figure("predict_q8_insts_per_s", "1/s", median(q8Rate))
	r.figure("sweep_configs_per_s", "1/s", median(sweepRate))
	r.figure("sweep_p50_ms", "ms", percentile(sweepMs, 50))
	r.figure("predict_request_p50_ms", "ms", percentile(reqMs, 50))
	r.figure("requests", "count", float64(len(reqMs)))

	s.checks(pds, reps, repsQ8, sweep, tr, r)
	if tr != nil {
		spanLayers(tr, r)
		r.Layer["uarch.generate_s"] = s.genTime.Seconds()
		r.Layer["perfvec.sweeper.setspace_s"] = s.setTime.Seconds()
	}
	return nil
}

// checks compares the measured outputs with the reference paths.
func (s *predictState) checks(pds []*perfvec.ProgramData, reps, repsQ8 [][]float32, sweep [][]float64, tr *Tracer, r *Result) {
	// The traced run's split emulator + feature calls give exactly
	// CollectFeatures's data.
	split, err := s.collect(s.progs[0], newTracer(), -1, 0)
	whole, err2 := perfvec.CollectFeatures(s.progs[0], 1, s.plan.MaxInsts)
	ok := err == nil && err2 == nil && split.N == whole.N && sameBits32(split.Features, whole.Features)
	r.check("split collect = CollectFeatures", fails(ok), "%s", s.progs[0].Name)

	// f32 reps are bitwise Foundation.ProgramRep; checked on two programs
	// (the tape forward is the slow reference).
	for _, i := range []int{0, len(pds) / 2} {
		ref := s.f.ProgramRep(pds[i])
		r.check("f32 rep = ProgramRep "+pds[i].Name, fails(sameBits32(ref, reps[i])), "%d values", len(ref))
	}

	// Sweep rows are bitwise dse.SweepNaive, on every 16th candidate.
	var cfgs []*uarch.Config
	var cols []int
	for j := 0; j < len(s.space); j += 16 {
		cfgs = append(cfgs, s.space[j])
		cols = append(cols, j)
	}
	naive := [][]float64{make([]float64, len(cfgs))}
	dse.SweepNaive(s.f, s.um, cfgs, reps[:1], naive)
	ok = true
	for k, j := range cols {
		ok = ok && math.Float64bits(naive[0][k]) == math.Float64bits(sweep[0][j])
	}
	r.check("sweep = SweepNaive", fails(ok), "%d of %d candidates of %s", len(cols), len(s.space), pds[0].Name)

	// int8 drift against the float64 oracle on one program (the oracle
	// takes seconds on a program of predictInsts instructions).
	i := len(pds) - 1
	rep64 := [][]float64{make([]float64, len(reps[0]))}
	s.f.EncodePrograms64(pds[i:i+1], rep64)
	var maxAbs, maxErr float64
	for j, v := range rep64[0] {
		maxAbs = max(maxAbs, math.Abs(v))
		maxErr = max(maxErr, math.Abs(float64(repsQ8[i][j])-v))
	}
	drift := maxErr / maxAbs
	r.figure("q8_drift_max", "ratio", drift)
	r.check("q8 drift within bound", fails(drift <= driftBoundQ8), "%s: %.4g <= %g", pds[i].Name, drift, driftBoundQ8)
	if tr != nil {
		r.Layer["perfvec.encode_q8.drift_max"] = drift
	}
}

func sameBits32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// spanLayers fills the per-layer metrics that come straight from spans and
// counters, shared by every workload.
func spanLayers(tr *Tracer, r *Result) {
	rate := func(count, busy string) float64 {
		if b := r.Layer[busy]; b > 0 {
			return r.Layer[count] / b
		}
		return 0
	}
	for _, c := range []struct{ metric, span, counter string }{
		{"emu", "emu.trace", "emu.insts"},
		{"features", "features.extract", "features.rows"},
		{"sim", "sim.simulate", "sim.insts"},
		{"perfvec.encode", "perfvec.encode", "perfvec.encode.rows"},
		{"perfvec.encode_q8", "perfvec.encode_q8", "perfvec.encode_q8.rows"},
		{"perfvec.predict", "perfvec.predict", "perfvec.predict.calls"},
		{"dse.sweep", "dse.sweep", "dse.sweep.configs"},
	} {
		r.Layer[c.metric+".busy_s"] = tr.Busy(c.span).Seconds()
		r.Layer[c.counter] = tr.Counter(c.counter)
	}
	r.Layer["perfvec.encode.batches"] = tr.Counter("perfvec.encode.batches")
	r.Layer["perfvec.encode_q8.batches"] = tr.Counter("perfvec.encode_q8.batches")
	r.Layer["emu.insts_per_s"] = rate("emu.insts", "emu.busy_s")
	r.Layer["features.rows_per_s"] = rate("features.rows", "features.busy_s")
	r.Layer["sim.insts_per_s"] = rate("sim.insts", "sim.busy_s")
	r.Layer["perfvec.encode.rows_per_s"] = rate("perfvec.encode.rows", "perfvec.encode.busy_s")
	r.Layer["perfvec.encode_q8.rows_per_s"] = rate("perfvec.encode_q8.rows", "perfvec.encode_q8.busy_s")
	r.Layer["dse.sweep.configs_per_s"] = rate("dse.sweep.configs", "dse.sweep.busy_s")
}
