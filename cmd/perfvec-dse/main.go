// Command perfvec-dse runs the paper's §VI-A design space exploration: the
// L1/L2 cache-size sweep on an A7-like core, solved with the PerfVec
// workflow (sample a few designs, tune a microarchitecture representation
// model, predict the whole space with dot products) and validated against
// exhaustive simulation.
//
// After the paper's 36-design study it runs a fleet-scale sweep: a generated
// candidate space of -space-size configurations ranked with the batched
// predictor across GOMAXPROCS workers, reporting configs/s.
//
// Usage:
//
//	perfvec-dse -epochs 8 -maxinsts 15000 -space-size 4096
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/perfvec"
	"repro/internal/stats"
	"repro/internal/uarch"
)

func main() {
	var (
		sampled  = flag.Int("uarchs", 9, "sampled training microarchitectures (plus 7 predefined)")
		maxInsts = flag.Int("maxinsts", 15000, "dynamic instructions per benchmark")
		epochs   = flag.Int("epochs", 8, "foundation training epochs")
		samples  = flag.Int("samples", 80000, "samples per epoch")
		tuneN    = flag.Int("tune-designs", 18, "designs simulated for tuning (paper: 18 of 36)")
		seed     = flag.Int64("seed", 1, "seed")
		spaceN   = flag.Int("space-size", 2048, "generated candidate configs for the fleet-scale sweep (0: skip)")
	)
	flag.Parse()

	// 1. Train the foundation model (in a real deployment this is the
	// pre-trained artifact users download).
	cfg := perfvec.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.EpochSamples = *samples
	cfg.Seed = *seed
	cfgs := uarch.TrainingSet(*seed, *sampled)
	fmt.Println("training foundation model...")
	pds, err := perfvec.CollectAll(bench.Training(), cfgs, 1, *maxInsts)
	if err != nil {
		fatal(err)
	}
	d, err := perfvec.NewDataset(pds, 0.05, *seed)
	if err != nil {
		fatal(err)
	}
	f := perfvec.NewFoundation(cfg)
	tr := perfvec.NewTrainer(f, len(cfgs))
	tr.Train(d)

	// 2. Run the DSE.
	space := dse.Space()
	programs := bench.All()
	fmt.Printf("exploring %d cache designs for %d programs...\n", len(space), len(programs))

	var targets []*perfvec.ProgramData
	for _, b := range programs {
		pd, err := perfvec.CollectFeatures(b, 1, *maxInsts)
		if err != nil {
			fatal(err)
		}
		targets = append(targets, pd)
	}
	start := time.Now()
	res, err := dse.RunPerfVec(f, space, bench.Training()[:3], targets, *tuneN, 1, *maxInsts, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("PerfVec DSE done in %s using %d simulations (exhaustive: %d)\n",
		time.Since(start).Round(time.Millisecond), res.SimsUsed, len(space)*len(programs))
	fmt.Printf("sweep: %d (program, design) predictions in %s (%s configs/s)\n",
		res.SweepConfigs, res.SweepTime.Round(time.Microsecond), configsPerSec(res.SweepConfigs, res.SweepTime))

	// 3. Validate against exhaustive simulation.
	truth, _, err := dse.GroundTruth(space, programs, 1, *maxInsts)
	if err != nil {
		fatal(err)
	}
	tb := &stats.Table{Header: []string{"program", "selected design", "true best", "quality"}}
	var avgQ float64
	for pi, b := range programs {
		objs := dse.ObjectiveSurface(space, truth[pi])
		q := dse.Quality(objs, res.Selected[pi])
		avgQ += q
		tb.Add(b.Name, space[res.Selected[pi]].Config.Name,
			space[stats.ArgMin(objs)].Config.Name, stats.Pct(q))
	}
	fmt.Print(tb.String())
	fmt.Printf("average quality: %s (fraction of designs beating the selection; paper: 3.6%%)\n",
		stats.Pct(avgQ/float64(len(programs))))

	// 4. Fleet-scale sweep: reuse the tuned microarchitecture model to rank a
	// generated candidate space of thousands of configurations — the batched
	// predictor's throughput case. No simulations are spent here.
	if *spaceN > 0 {
		gen := uarch.GenerateSpace(uarch.SpaceSpec{Size: *spaceN, Seed: uint64(*seed)})
		sw := perfvec.NewSweeper(f, res.Uarch)
		sw.SetSpace(gen)
		progReps := make([][]float32, len(targets))
		out := make([][]float64, len(targets))
		for i := range targets {
			progReps[i] = make([]float32, f.Cfg.RepDim)
			out[i] = make([]float64, sw.K())
		}
		e := f.AcquireEncoder()
		e.EncodePrograms32(targets, progReps)
		f.ReleaseEncoder(e)
		start = time.Now()
		n := dse.SweepPrograms(sw, progReps, out, 0)
		el := time.Since(start)
		fmt.Printf("fleet sweep: %d candidate configs x %d programs = %d predictions in %s (%s configs/s)\n",
			sw.K(), len(targets), n, el.Round(time.Microsecond), configsPerSec(n, el))
	}
}

// configsPerSec formats a predictions-per-second rate.
func configsPerSec(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfvec-dse:", err)
	os.Exit(1)
}
