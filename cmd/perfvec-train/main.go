// Command perfvec-train trains a PerfVec foundation model end to end:
// it samples microarchitectures, traces and simulates the training
// benchmarks, trains the model jointly with the representation table, and
// writes one model file (config, microarchitectures, parameters and table)
// for perfvec-eval and perfvec-serve.
//
// Usage:
//
//	perfvec-train -model lstm -epochs 10 -out perfvec-model.gob
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/perfvec"
	"repro/internal/uarch"
)

func main() {
	var (
		out      = flag.String("out", "perfvec-model.gob", "model output path")
		sampled  = flag.Int("uarchs", 9, "sampled microarchitectures (plus 7 predefined)")
		maxInsts = flag.Int("maxinsts", 20000, "dynamic instructions per benchmark")
		epochs   = flag.Int("epochs", 10, "training epochs")
		samples  = flag.Int("samples", 100000, "samples per epoch (0 = all)")
		hidden   = flag.Int("hidden", 32, "model width / representation dimensionality")
		layers   = flag.Int("layers", 2, "model depth")
		model    = flag.String("model", "lstm", "architecture: linear|mlp|lstm|bilstm|gru|transformer")
		seed     = flag.Int64("seed", 1, "seed")
		workers  = flag.Int("workers", 0, "data-parallel gradient workers (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()

	cfg := perfvec.DefaultConfig()
	cfg.Model = perfvec.ModelKind(*model)
	cfg.Hidden = *hidden
	cfg.RepDim = *hidden
	cfg.Layers = *layers
	cfg.Epochs = *epochs
	cfg.EpochSamples = *samples
	cfg.Seed = *seed
	cfg.GradWorkers = *workers
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	cfgs := uarch.TrainingSet(*seed, *sampled)
	fmt.Printf("collecting %d training benchmarks x %d microarchitectures...\n",
		len(bench.Training()), len(cfgs))
	pds, err := perfvec.CollectAll(bench.Training(), cfgs, 1, *maxInsts)
	if err != nil {
		fatal(err)
	}
	d, err := perfvec.NewDataset(pds, 0.05, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("training %s-%d-%d on %d samples...\n", cfg.Model, cfg.Layers, cfg.Hidden, d.TrainSize())

	f := perfvec.NewFoundation(cfg)
	tr := perfvec.NewTrainer(f, len(cfgs))
	tr.Log = os.Stdout
	res := tr.Train(d)
	fmt.Printf("best epoch %d (val loss %.5f)\n", res.BestEpoch, res.ValLoss[res.BestEpoch])

	if err := save(*out, f, tr.Table, cfgs); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func save(path string, f *perfvec.Foundation, table *perfvec.Table, cfgs []*uarch.Config) error {
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := perfvec.SaveModel(fp, f, table, cfgs); err != nil {
		fp.Close()
		return err
	}
	return fp.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfvec-train:", err)
	os.Exit(1)
}
