// Command perfvec-eval loads a trained model (from perfvec-train) and
// evaluates prediction accuracy for any benchmark on the microarchitectures
// the model's table was trained on, reproducing the per-program statistics
// of the paper's Figures 3-5. The architecture, dimensions and
// microarchitectures all come from the model file.
//
// Usage:
//
//	perfvec-eval -model perfvec-model.gob -bench 505.mcf
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/perfvec"
	"repro/internal/stats"
)

func main() {
	var (
		modelPath = flag.String("model", "perfvec-model.gob", "model path")
		benchArg  = flag.String("bench", "all", "benchmark name or 'all'")
		maxInsts  = flag.Int("maxinsts", 20000, "dynamic instructions per benchmark")
	)
	flag.Parse()

	fp, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	f, table, cfgs, err := perfvec.LoadModel(fp)
	fp.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *modelPath, err))
	}

	var benches []bench.Benchmark
	if *benchArg == "all" {
		benches = bench.All()
	} else {
		for _, name := range strings.Split(*benchArg, ",") {
			b, err := bench.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			benches = append(benches, b)
		}
	}

	tb := &stats.Table{Header: []string{"program", "mean", "std", "min", "max"}}
	for _, b := range benches {
		pd, err := perfvec.CollectProgramData(b, cfgs, 1, *maxInsts)
		if err != nil {
			fatal(err)
		}
		s := perfvec.Summarize(b.Name, perfvec.ProgramErrors(f, table, pd))
		tb.Add(s.Name, stats.Pct(s.Mean), stats.Pct(s.Std), stats.Pct(s.Min), stats.Pct(s.Max))
	}
	fmt.Printf("prediction error across %d seen microarchitectures:\n%s", len(cfgs), tb.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfvec-eval:", err)
	os.Exit(1)
}
