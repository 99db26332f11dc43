// Command perfvec-experiments regenerates the paper's evaluation: one
// subcommand per table/figure (fig3 fig4 fig5 fig6 fig7 fig8 table3 table4
// volume features reuse), or "all". Each experiment's function in
// internal/experiments documents the artifact it regenerates; the printed
// renditions are the paper-vs-measured record.
//
// Usage:
//
//	perfvec-experiments -exp fig3,fig8
//	perfvec-experiments -exp all -fast
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		expList  = flag.String("exp", "all", "comma-separated experiments: fig3,fig4,fig5,fig6,fig7,fig8,table3,table4,volume,features,reuse or 'all'")
		fast     = flag.Bool("fast", false, "use heavily reduced scale (smoke-test quality)")
		epochs   = flag.Int("epochs", 0, "override training epochs")
		samples  = flag.Int("samples", 0, "override per-epoch training samples")
		uarchs   = flag.Int("uarchs", 0, "override sampled microarchitecture count")
		maxInsts = flag.Int("maxinsts", 0, "override per-benchmark instruction budget")
		seed     = flag.Int64("seed", 1, "experiment seed")
		mmN      = flag.Int("mm-n", 32, "matrix size for the fig8 tiling study")
		verbose  = flag.Bool("v", false, "log training progress")
	)
	flag.Parse()

	opts := experiments.Default()
	if *fast {
		opts = experiments.Fast()
	}
	if *epochs > 0 {
		opts.Model.Epochs = *epochs
	}
	if *samples > 0 {
		opts.Model.EpochSamples = *samples
	}
	if *uarchs > 0 {
		opts.SampledUarchs = *uarchs
	}
	if *maxInsts > 0 {
		opts.MaxInsts = *maxInsts
	}
	opts.Seed = *seed

	logW := os.Stderr
	if !*verbose {
		logW = nil
	}
	arts := experiments.NewArtifacts(opts, logW)

	all := []string{"fig3", "fig4", "fig5", "fig6", "volume", "features", "table3", "table4", "fig7", "fig8", "reuse"}
	var wanted []string
	if *expList == "all" {
		wanted = all
	} else {
		wanted = strings.Split(*expList, ",")
	}

	for _, exp := range wanted {
		exp = strings.TrimSpace(exp)
		start := time.Now()
		var err error
		switch exp {
		case "fig3":
			_, err = experiments.Fig3(arts, os.Stdout)
		case "fig4":
			_, err = experiments.Fig4(arts, os.Stdout)
		case "fig5":
			_, err = experiments.Fig5(arts, os.Stdout)
		case "fig6":
			_, err = experiments.Fig6(arts, os.Stdout)
		case "volume":
			_, err = experiments.Volume(arts, os.Stdout)
		case "features":
			_, err = experiments.FeatureAblation(arts, os.Stdout)
		case "table3":
			_, err = experiments.Table3(arts, os.Stdout)
		case "table4":
			_, err = experiments.Table4(arts, os.Stdout)
		case "fig7":
			_, err = experiments.Fig7(arts, os.Stdout)
		case "fig8":
			_, err = experiments.Fig8(arts, *mmN, os.Stdout)
		case "reuse":
			_, err = experiments.Reuse(arts, os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q (choose from %s)\n", exp, strings.Join(all, ","))
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", exp, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %s]\n\n", exp, time.Since(start).Round(time.Second))
	}
}
