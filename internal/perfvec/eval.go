package perfvec

import "math"

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
