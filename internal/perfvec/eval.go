package perfvec

import (
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// ProgramErrors evaluates the model's total-execution-time prediction for
// one program against the simulator's ground truth on every
// microarchitecture in the table, returning the per-uarch absolute relative
// errors (the quantity plotted in the paper's Figures 3-5).
func ProgramErrors(f *Foundation, table *Table, p *ProgramData) []float64 {
	rep := f.ProgramRep(p)
	errs := make([]float64, table.K())
	for j := 0; j < table.K(); j++ {
		pred := f.PredictTotalNs(rep, table.Rep(j))
		truth := p.TotalNs[j]
		if truth == 0 {
			errs[j] = 0
			continue
		}
		errs[j] = math.Abs(pred-truth) / truth
	}
	return errs
}

// simFeedRows featurizes a record stream as a RowStream while replaying the
// same records into every CPU in bounded chunks of streamChunk — the glue
// that lets StreamRep drive both the encoder and the ground-truth simulators
// from one emulator pass. The flush cadence is purely a dispatch-overhead
// knob: each CPU consumes the records strictly in trace order whatever the
// chunk boundaries, so it cannot affect the bitwise-equivalence guarantee
// (only the encoder batch size, the shared streamChunk in StreamRep, can).
type simFeedRows struct {
	src  trace.Stream
	ext  *features.Extractor
	cpus []*sim.CPU
	recs []trace.Record
	rec  trace.Record
}

func (s *simFeedRows) Next(out []float32) (bool, error) {
	ok, err := s.src.Next(&s.rec)
	if err != nil {
		return false, err
	}
	if !ok {
		s.flush()
		return false, nil
	}
	s.ext.Extract(&s.rec, out)
	s.recs = append(s.recs, s.rec)
	if len(s.recs) == streamChunk {
		s.flush()
	}
	return true, nil
}

func (s *simFeedRows) flush() {
	if len(s.recs) > 0 {
		feedAll(s.cpus, s.recs)
		s.recs = s.recs[:0]
	}
}

// feedAll replays one chunk of records into every CPU, parallel across
// configurations through the tensor worker pool (each CPU remains strictly
// sequential over the trace).
func feedAll(cpus []*sim.CPU, recs []trace.Record) {
	tensor.Parallel(len(cpus), func(from, to int) {
		for j := from; j < to; j++ {
			for i := range recs {
				cpus[j].Feed(&recs[i])
			}
		}
	})
}

// StreamProgramErrors evaluates b end to end in one streaming pass: the
// emulator's records are featurized, window-assembled, and encoded chunk by
// chunk through StreamRep while every configuration's timing simulator
// consumes the same chunks in parallel for the ground truth. No trace or
// feature matrix is materialized — peak memory beyond the model is
// O(window + streamChunk) rows — and the errors are bitwise identical to
// ProgramErrors over CollectProgramData of the same benchmark (identical
// extractor sequence, identical encoder batches, identical simulator feeds).
func StreamProgramErrors(f *Foundation, table *Table, b bench.Benchmark, cfgs []*uarch.Config, scale, maxInsts int) ([]float64, error) {
	if f.Cfg.FeatDim != features.NumFeatures {
		return nil, fmt.Errorf("perfvec: model FeatDim %d != featurizer's %d", f.Cfg.FeatDim, features.NumFeatures)
	}
	cpus := make([]*sim.CPU, len(cfgs))
	for j, cfg := range cfgs {
		cpus[j] = sim.New(cfg)
	}
	rows := &simFeedRows{
		src:  b.Stream(scale, maxInsts),
		ext:  features.NewExtractor(streamChunk),
		cpus: cpus,
		recs: make([]trace.Record, 0, streamChunk),
	}
	rep, n, err := f.StreamRep(rows)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("perfvec: %s produced an empty trace", b.Name)
	}
	errs := make([]float64, len(cfgs))
	for j := range cfgs {
		pred := f.PredictTotalNs(rep, table.Rep(j))
		truth := cpus[j].TotalNs()
		if truth == 0 {
			errs[j] = 0
			continue
		}
		errs[j] = math.Abs(pred-truth) / truth
	}
	return errs, nil
}

// ErrorSummary is the per-program statistic shown as the dots and caps of
// Figures 3-5: mean, standard deviation, minimum, and maximum of the
// absolute prediction error across microarchitectures.
type ErrorSummary struct {
	Name                string
	Mean, Std, Min, Max float64
}

// Summarize reduces per-uarch errors to the figure statistics.
func Summarize(name string, errs []float64) ErrorSummary {
	s := ErrorSummary{Name: name, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, e := range errs {
		s.Mean += e
		if e < s.Min {
			s.Min = e
		}
		if e > s.Max {
			s.Max = e
		}
	}
	s.Mean /= float64(len(errs))
	for _, e := range errs {
		d := e - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(errs)))
	return s
}
