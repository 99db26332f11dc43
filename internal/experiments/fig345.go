package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/perfvec"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// Fig3Result holds the Figure 3 data: per-program prediction-error
// statistics for seen and unseen programs on seen microarchitectures.
type Fig3Result struct {
	Seen   []perfvec.ErrorSummary
	Unseen []perfvec.ErrorSummary
}

// MeanSeen returns the average of the seen programs' mean errors.
func (r *Fig3Result) MeanSeen() float64 { return meanOf(r.Seen) }

// MeanUnseen returns the average of the unseen programs' mean errors.
func (r *Fig3Result) MeanUnseen() float64 { return meanOf(r.Unseen) }

// Fig3 reproduces Figure 3: train the default foundation model on the nine
// training benchmarks, then predict execution time for all seventeen
// programs on the seen microarchitectures.
func Fig3(a *Artifacts, w io.Writer) (*Fig3Result, error) {
	model, table, err := a.Model()
	if err != nil {
		return nil, err
	}
	trainPds, err := a.TrainData()
	if err != nil {
		return nil, err
	}
	testPds, err := a.TestData()
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{
		Seen:   evalPrograms(model, table, trainPds),
		Unseen: evalPrograms(model, table, testPds),
	}
	printErrorFigure(w, "Figure 3: prediction error on seen microarchitectures", res.Seen, res.Unseen)
	return res, nil
}

// Fig4Result extends Fig3Result with the identity of the moved benchmark.
type Fig4Result struct {
	Fig3Result
	Moved string
}

// Fig4 reproduces Figure 4's experiment: the paper observes one outlier
// unseen program (519.lbm on their dataset), moves it into the training set,
// retrains, and shows its error collapsing while other programs improve. We
// apply the identical protocol to the worst unseen program measured by a
// fresh Fig3 evaluation on this dataset.
func Fig4(a *Artifacts, w io.Writer) (*Fig4Result, error) {
	model, table, err := a.Model()
	if err != nil {
		return nil, err
	}
	trainPds, err := a.TrainData()
	if err != nil {
		return nil, err
	}
	testPds, err := a.TestData()
	if err != nil {
		return nil, err
	}
	unseen := evalPrograms(model, table, testPds)
	moved := worstProgram(unseen).Name
	fmt.Fprintf(w, "outlier unseen program: %s (paper's analogue: 519.lbm)\n", moved)

	// Move it into the training set and retrain from scratch.
	var newTrain, newTest []*perfvec.ProgramData
	newTrain = append(newTrain, trainPds...)
	for _, pd := range testPds {
		if pd.Name == moved {
			newTrain = append(newTrain, pd)
		} else {
			newTest = append(newTest, pd)
		}
	}
	model2, table2, err := a.trainOn(newTrain, a.Opts.Model)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		Fig3Result: Fig3Result{
			Seen:   evalPrograms(model2, table2, newTrain),
			Unseen: evalPrograms(model2, table2, newTest),
		},
		Moved: moved,
	}
	printErrorFigure(w, "Figure 4: after moving "+moved+" into training", res.Seen, res.Unseen)
	return res, nil
}

// Fig5Result holds Figure 5's data: errors on unseen microarchitectures,
// plus those microarchitectures and the table fine-tuned for them.
type Fig5Result struct {
	Seen   []perfvec.ErrorSummary
	Unseen []perfvec.ErrorSummary
	Uarchs []*uarch.Config
	Table  *perfvec.Table
}

// Fig5 reproduces Figure 5: generate fresh random microarchitectures never
// used in training, learn their representations by fine-tuning only the
// table (foundation frozen) on a small tuning set of seen programs, then
// evaluate all programs on them.
func Fig5(a *Artifacts, w io.Writer) (*Fig5Result, error) {
	model, _, err := a.Model()
	if err != nil {
		return nil, err
	}
	newCfgs := uarch.NewSampler(a.Opts.Seed + 1000).SampleSet(a.Opts.UnseenUarchs)
	fmt.Fprintf(w, "fine-tuning representations for %d unseen microarchitectures\n", len(newCfgs))

	// Tuning dataset: a few seen programs on the new configurations.
	tuneBenches := bench.Training()[:3]
	tunePds, err := perfvec.CollectAll(tuneBenches, newCfgs, a.Opts.Scale, a.Opts.MaxInsts)
	if err != nil {
		return nil, err
	}
	table := perfvec.FineTuneTable(model, tunePds, 150, 0.01, a.Opts.Seed+2)

	// Evaluation data: all programs on the new configurations.
	seenPds, err := perfvec.CollectAll(bench.Training(), newCfgs, a.Opts.Scale, a.Opts.MaxInsts)
	if err != nil {
		return nil, err
	}
	unseenPds, err := perfvec.CollectAll(bench.Testing(), newCfgs, a.Opts.Scale, a.Opts.MaxInsts)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		Seen:   evalPrograms(model, table, seenPds),
		Unseen: evalPrograms(model, table, unseenPds),
		Uarchs: newCfgs,
		Table:  table,
	}
	printErrorFigure(w, "Figure 5: prediction error on unseen microarchitectures", res.Seen, res.Unseen)
	fmt.Fprintf(w, "average error: seen programs %s, unseen programs %s (paper: 4.2%% / 7.1%%)\n",
		stats.Pct(meanOf(res.Seen)), stats.Pct(meanOf(res.Unseen)))
	return res, nil
}

func printErrorFigure(w io.Writer, title string, seen, unseen []perfvec.ErrorSummary) {
	fmt.Fprintln(w, title)
	tb := &stats.Table{Header: []string{"program", "set", "mean", "std", "min", "max"}}
	for _, s := range seen {
		tb.Add(s.Name, "seen", stats.Pct(s.Mean), stats.Pct(s.Std), stats.Pct(s.Min), stats.Pct(s.Max))
	}
	for _, s := range unseen {
		tb.Add(s.Name, "unseen", stats.Pct(s.Mean), stats.Pct(s.Std), stats.Pct(s.Min), stats.Pct(s.Max))
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "mean of means: seen %s, unseen %s\n\n", stats.Pct(meanOf(seen)), stats.Pct(meanOf(unseen)))
}
