// Package experiments regenerates every table and figure of the paper's
// evaluation (§V and §VI) on this repository's substrates. Each Fig*/Table*
// function writes a plain-text rendition of the corresponding artifact and
// returns the underlying numbers for programmatic checks.
//
// cmd/perfvec-experiments maps one subcommand to each function, and each
// function's doc comment names the artifact it reproduces.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bench"
	"repro/internal/perfvec"
	"repro/internal/uarch"
)

// Options scales the experiments. Defaults approximate the paper's setup at
// single-CPU size; Fast() shrinks everything for smoke tests and benchmarks.
type Options struct {
	SampledUarchs int // random configs added to the 7 predefined (paper: 70)
	UnseenUarchs  int // fresh configs for the Fig. 5 study (paper: 10)
	MaxInsts      int // dynamic instructions per benchmark trace (paper: 100M)
	Scale         int // benchmark problem-size knob
	Seed          int64

	Model perfvec.Config
}

// Default returns the experiment-scale options (minutes per experiment on
// one CPU).
func Default() Options {
	m := perfvec.DefaultConfig()
	m.Epochs = 10
	m.EpochSamples = 100_000
	return Options{
		SampledUarchs: 9, // + 7 predefined = 16 seen microarchitectures
		UnseenUarchs:  10,
		MaxInsts:      20_000,
		Scale:         1,
		Seed:          1,
		Model:         m,
	}
}

// Fast returns heavily reduced options for tests and testing.B benchmarks.
func Fast() Options {
	o := Default()
	o.SampledUarchs = 2 // + 7 predefined = 9
	o.UnseenUarchs = 2
	o.MaxInsts = 2_500
	o.Model.Hidden = 12
	o.Model.RepDim = 12
	o.Model.Window = 4
	o.Model.Epochs = 2
	o.Model.EpochSamples = 6_000
	return o
}

// Artifacts lazily builds and caches the shared experiment state: the seen
// microarchitectures, the collected training/testing data, and the trained
// headline model (the default LSTM foundation + representation table).
type Artifacts struct {
	Opts Options
	Log  io.Writer

	cfgs     []*uarch.Config
	trainPds []*perfvec.ProgramData
	testPds  []*perfvec.ProgramData
	model    *perfvec.Foundation
	table    *perfvec.Table
}

// NewArtifacts returns an empty artifact cache.
func NewArtifacts(opts Options, log io.Writer) *Artifacts {
	return &Artifacts{Opts: opts, Log: log}
}

func (a *Artifacts) logf(format string, args ...any) {
	if a.Log != nil {
		fmt.Fprintf(a.Log, format, args...)
	}
}

// Uarchs returns the seen microarchitectures (sampled + predefined).
func (a *Artifacts) Uarchs() []*uarch.Config {
	if a.cfgs == nil {
		a.cfgs = uarch.TrainingSet(a.Opts.Seed, a.Opts.SampledUarchs)
	}
	return a.cfgs
}

// TrainData collects (once) the Table II training benchmarks' data.
func (a *Artifacts) TrainData() ([]*perfvec.ProgramData, error) {
	if a.trainPds == nil {
		a.logf("collecting training data (%d benchmarks x %d uarchs)...\n",
			len(bench.Training()), len(a.Uarchs()))
		pds, err := perfvec.CollectAll(bench.Training(), a.Uarchs(), a.Opts.Scale, a.Opts.MaxInsts)
		if err != nil {
			return nil, err
		}
		a.trainPds = pds
	}
	return a.trainPds, nil
}

// TestData collects (once) the Table II testing benchmarks' data.
func (a *Artifacts) TestData() ([]*perfvec.ProgramData, error) {
	if a.testPds == nil {
		a.logf("collecting testing data (%d benchmarks x %d uarchs)...\n",
			len(bench.Testing()), len(a.Uarchs()))
		pds, err := perfvec.CollectAll(bench.Testing(), a.Uarchs(), a.Opts.Scale, a.Opts.MaxInsts)
		if err != nil {
			return nil, err
		}
		a.testPds = pds
	}
	return a.testPds, nil
}

// Model trains (once) the headline foundation model and table on the
// training benchmarks.
func (a *Artifacts) Model() (*perfvec.Foundation, *perfvec.Table, error) {
	if a.model == nil {
		pds, err := a.TrainData()
		if err != nil {
			return nil, nil, err
		}
		model, table, err := a.trainOn(pds, a.Opts.Model)
		if err != nil {
			return nil, nil, err
		}
		a.model, a.table = model, table
	}
	return a.model, a.table, nil
}

// trainOn trains a fresh model with the given config on the given programs.
func (a *Artifacts) trainOn(pds []*perfvec.ProgramData, mc perfvec.Config) (*perfvec.Foundation, *perfvec.Table, error) {
	d, err := perfvec.NewDataset(pds, 0.05, a.Opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	model := perfvec.NewFoundation(mc)
	tr := perfvec.NewTrainer(model, len(a.Uarchs()))
	tr.Log = a.Log
	a.logf("training %s-%d-%d on %d samples...\n", mc.Model, mc.Layers, mc.Hidden, d.TrainSize())
	tr.Train(d)
	return model, tr.Table, nil
}

// evalPrograms computes per-program error summaries against a table.
func evalPrograms(f *perfvec.Foundation, table *perfvec.Table, pds []*perfvec.ProgramData) []perfvec.ErrorSummary {
	out := make([]perfvec.ErrorSummary, len(pds))
	for i, pd := range pds {
		out[i] = perfvec.Summarize(pd.Name, perfvec.ProgramErrors(f, table, pd))
	}
	return out
}

// meanOf averages the per-program mean errors.
func meanOf(sums []perfvec.ErrorSummary) float64 {
	var s float64
	for _, e := range sums {
		s += e.Mean
	}
	return s / float64(len(sums))
}

// worstProgram returns the summary with the highest mean error.
func worstProgram(sums []perfvec.ErrorSummary) perfvec.ErrorSummary {
	worst := sums[0]
	for _, s := range sums[1:] {
		if s.Mean > worst.Mean {
			worst = s
		}
	}
	return worst
}

// sortedNames lists program names of summaries in order.
func sortedNames(sums []perfvec.ErrorSummary) []string {
	names := make([]string, len(sums))
	for i, s := range sums {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
