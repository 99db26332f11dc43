// Command perfvec-train trains a PerfVec foundation model end to end:
// it samples microarchitectures, traces and simulates the training
// benchmarks, trains the model jointly with the representation table, and
// writes both to disk for perfvec-eval and perfvec-dse.
//
// Usage:
//
//	perfvec-train -out model.gob -table table.gob -epochs 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/perfvec"
	"repro/internal/uarch"
)

func main() {
	var (
		outModel = flag.String("out", "perfvec-model.gob", "foundation model output path")
		outTable = flag.String("table", "perfvec-table.gob", "microarchitecture table output path")
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

	if err := saveTo(*outModel, f.Save); err != nil {
		fatal(err)
	}
	if err := saveTo(*outTable, tr.Table.Save); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s and %s\n", *outModel, *outTable)
}

func saveTo(path string, save func(w io.Writer) error) error {
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(fp); err != nil {
		fp.Close()
		return err
	}
	return fp.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfvec-train:", err)
	os.Exit(1)
}
