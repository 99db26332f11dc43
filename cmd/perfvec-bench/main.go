// Command perfvec-bench runs the repo's tracked micro-benchmarks
// (BenchmarkMatMul/MatMul32/MatMulQ8/MatMulQ8ModelShape, BenchmarkBatch,
// BenchmarkTrainStep, the BenchmarkEncodeF32/EncodeQ8 serving-tier pair
// and its one-long-program twin BenchmarkEncodeLongF32/EncodeLongQ8,
// the BenchmarkServe* serving suite, the BenchmarkSweep/SweepNaive
// design-space sweep pair and BenchmarkSweepPrograms, one predict-unseen
// sweep) through testing.Benchmark and writes the
// results as JSON, so the performance trajectory of the training and
// serving hot paths is recorded across changes (the BENCH_N.json files at
// the repository root are such snapshots). The report's machine section
// records the active SIMD kernel sets (AVX2/FMA, the VPMADDUBSW int8 dot
// kernel) and the CPUID-detected cache geometry with the GEMM blocking
// tuned from it, so kernel-sensitive numbers are interpretable across
// machines; the header line logs the same.
//
// With -budget it also enforces a checked-in budget (bench_budget.json):
// CI fails when a change makes the training step, the GEMM backend, or the
// serving hot path allocate more than the recorded bound, or when a
// benchmark with a speedup floor (min_speedup over speedup_base) falls
// below it. A speedup is the median over interleaved runs of both
// benchmarks in this one process: absolute ns/op is too noisy to gate on a
// shared box, a ratio measured side by side is not.
//
// With -diff old.json it reads two reports and prints, per benchmark, how
// ns/op, B/op and allocs/op moved from old.json to the report named by the
// first argument. With -tape-histogram it instead runs one serial training
// step and prints the op-record kind histogram of its tape — the
// record-tape profiling hook for inspecting the step graph's op mix.
//
// Usage:
//
//	perfvec-bench [-o out.json] [-budget bench_budget.json]
//	perfvec-bench -diff old.json new.json
//	perfvec-bench -tape-histogram
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/tensor"
)

// result is one benchmark's record: the three numbers `go test -benchmem`
// prints, plus iteration count for context.
type result struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// machine records the hardware context benchmark numbers were measured
// under: which optional SIMD kernel sets were active (a MatMulQ8 number from
// the portable kernels is not comparable to one from VPMADDUBSW hardware)
// and the cache geometry the GEMM blocking was tuned from.
type machine struct {
	Features tensor.Features `json:"features"`
	// Blocking: the runtime-tuned GEMM parameters [MR, NR, KC, MC, NC].
	Blocking [5]int `json:"blocking"`
	// L1dBytes/L2Bytes are zero when CPUID cache detection is unavailable
	// (the blocking then reflects compile-time defaults).
	L1dBytes int `json:"l1d_bytes"`
	L2Bytes  int `json:"l2_bytes"`
}

// report is the schema of BENCH_N.json.
type report struct {
	GeneratedAt string            `json:"generated_at"`
	GoVersion   string            `json:"go_version"`
	GoMaxProcs  int               `json:"go_max_procs"`
	Machine     machine           `json:"machine"`
	Results     map[string]result `json:"results"`
}

// budget is the schema of bench_budget.json: per-benchmark ceilings on
// allocs/op and, optionally, a floor on the benchmark's speedup over a base
// benchmark (base ns/op over this one's, measured interleaved in-process).
type budget map[string]struct {
	MaxAllocsPerOp int64   `json:"max_allocs_per_op"`
	SpeedupBase    string  `json:"speedup_base,omitempty"`
	MinSpeedup     float64 `json:"min_speedup,omitempty"`
}

// speedupRounds is the number of interleaved (benchmark, base) pairs a
// speedup gate measures; the gate uses their median ratio.
const speedupRounds = 7

func main() {
	out := flag.String("o", "-", "output JSON path (\"-\" for stdout)")
	budgetPath := flag.String("budget", "", "budget JSON to enforce: allocation ceilings and speedup floors (exit 1 on regression)")
	diffOld := flag.String("diff", "", "compare this report with the report named by the first argument and exit")
	tapeHist := flag.Bool("tape-histogram", false, "print the op-record kind histogram of one training step and exit")
	flag.Parse()

	if *tapeHist {
		printTapeHistogram()
		return
	}
	if *diffOld != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: perfvec-bench -diff old.json new.json")
			os.Exit(2)
		}
		if err := printDiff(os.Stdout, *diffOld, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "perfvec-bench:", err)
			os.Exit(1)
		}
		return
	}

	// The GEMM blocking header: both numeric engines run under these
	// parameters, tuned at init from the detected cache geometry (or the
	// compile-time defaults when detection is unavailable).
	mr, nr, kc, mc, nc := tensor.BlockingParams()
	mach := machine{Features: tensor.CPUFeatures(), Blocking: [5]int{mr, nr, kc, mc, nc}}
	if l1d, l2, ok := tensor.CacheSizes(); ok {
		mach.L1dBytes, mach.L2Bytes = l1d, l2
		fmt.Fprintf(os.Stderr, "gemm blocking: %dx%d tile, KC=%d MC=%d NC=%d (L1d %d KiB, L2 %d KiB detected)\n",
			mr, nr, kc, mc, nc, l1d>>10, l2>>10)
	} else {
		fmt.Fprintf(os.Stderr, "gemm blocking: %dx%d tile, KC=%d MC=%d NC=%d (cache detection unavailable; compile-time defaults)\n",
			mr, nr, kc, mc, nc)
	}
	fmt.Fprintf(os.Stderr, "simd kernels: avx2_fma=%v dot_q8=%v\n",
		mach.Features.AVX2FMA, mach.Features.DotQ8)

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"MatMul", benchsuite.MatMul},
		{"MatMul32", benchsuite.MatMul32},
		{"MatMulQ8", benchsuite.MatMulQ8},
		{"MatMulQ8ModelShape", benchsuite.MatMulQ8ModelShape},
		{"Batch", benchsuite.Batch},
		{"TrainStep", benchsuite.TrainStep},
		{"EncodeF32", benchsuite.EncodeF32},
		{"EncodeQ8", benchsuite.EncodeQ8},
		{"EncodeLongF32", benchsuite.EncodeLongF32},
		{"EncodeLongQ8", benchsuite.EncodeLongQ8},
		{"Serve", benchsuite.Serve},
		{"ServeNaive", benchsuite.ServeNaive},
		{"ServeSubmitHit", benchsuite.ServeSubmitHit},
		{"ServePredict", benchsuite.ServePredict},
		{"Sweep", benchsuite.Sweep},
		{"SweepNaive", benchsuite.SweepNaive},
		{"SweepPrograms", benchsuite.SweepPrograms},
	}
	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Machine:     mach,
		Results:     make(map[string]result, len(benches)),
	}
	fns := make(map[string]func(*testing.B), len(benches))
	for _, b := range benches {
		fns[b.name] = b.fn
		rep.Results[b.name] = run(b.fn)
		r := rep.Results[b.name]
		fmt.Fprintf(os.Stderr, "%-18s %10d ns/op %12d B/op %8d allocs/op\n",
			b.name, int64(r.NsPerOp), r.BytesPerOp, r.AllocsPerOp)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfvec-bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfvec-bench:", err)
		os.Exit(1)
	}

	if *budgetPath == "" {
		return
	}
	raw, err := os.ReadFile(*budgetPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfvec-bench:", err)
		os.Exit(1)
	}
	var bud budget
	if err := json.Unmarshal(raw, &bud); err != nil {
		fmt.Fprintf(os.Stderr, "perfvec-bench: parsing %s: %v\n", *budgetPath, err)
		os.Exit(1)
	}
	failed := false
	names := make([]string, 0, len(bud))
	for name := range bud {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lim := bud[name]
		r, ok := rep.Results[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfvec-bench: budget names unknown benchmark %q\n", name)
			failed = true
			continue
		}
		if r.AllocsPerOp > lim.MaxAllocsPerOp {
			fmt.Fprintf(os.Stderr, "perfvec-bench: %s allocates %d/op, budget %d/op — allocation regression\n",
				name, r.AllocsPerOp, lim.MaxAllocsPerOp)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "perfvec-bench: %s within budget (%d <= %d allocs/op)\n",
				name, r.AllocsPerOp, lim.MaxAllocsPerOp)
		}
		if lim.MinSpeedup == 0 {
			continue
		}
		base, ok := fns[lim.SpeedupBase]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfvec-bench: %s's speedup_base names unknown benchmark %q\n", name, lim.SpeedupBase)
			failed = true
			continue
		}
		med, lo, hi := speedup(fns[name], base)
		verdict := "meets"
		if med < lim.MinSpeedup {
			verdict = "is below"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "perfvec-bench: %s is %.2fx %s (median of %d interleaved pairs, range %.2f-%.2fx; GOMAXPROCS=%d) — %s the %.2fx floor\n",
			name, med, lim.SpeedupBase, speedupRounds, lo, hi, runtime.GOMAXPROCS(0), verdict, lim.MinSpeedup)
	}
	if failed {
		os.Exit(1)
	}
}

// run measures one benchmark through testing.Benchmark.
func run(fn func(*testing.B)) result {
	r := testing.Benchmark(fn)
	return result{
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// speedup measures fn against base in speedupRounds interleaved pairs,
// alternating which side runs first, and returns the median, lowest and
// highest of the per-pair ratios base ns/op / fn ns/op.
func speedup(fn, base func(*testing.B)) (med, lo, hi float64) {
	ratios := make([]float64, speedupRounds)
	for i := range ratios {
		var f, b result
		if i%2 == 0 {
			f, b = run(fn), run(base)
		} else {
			b, f = run(base), run(fn)
		}
		ratios[i] = b.NsPerOp / f.NsPerOp
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], ratios[0], ratios[len(ratios)-1]
}

// printDiff writes, for every benchmark in either report, its ns/op, B/op
// and allocs/op in the old and new report with the relative ns/op change.
// Benchmarks present in only one report are marked added or removed.
func printDiff(w io.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (%s, GOMAXPROCS=%d)\nnew: %s (%s, GOMAXPROCS=%d)\n",
		oldPath, old.GeneratedAt, old.GoMaxProcs, newPath, cur.GeneratedAt, cur.GoMaxProcs)
	names := make([]string, 0, len(old.Results)+len(cur.Results))
	for name := range old.Results {
		names = append(names, name)
	}
	for name := range cur.Results {
		if _, ok := old.Results[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %14s %14s %8s %12s %12s %10s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old B/op", "new B/op", "old allocs", "new allocs")
	for _, name := range names {
		o, inOld := old.Results[name]
		n, inNew := cur.Results[name]
		switch {
		case !inOld:
			fmt.Fprintf(w, "%-14s %14s %14.0f %8s %12s %12d %10s %10d\n", name, "-", n.NsPerOp, "added", "-", n.BytesPerOp, "-", n.AllocsPerOp)
		case !inNew:
			fmt.Fprintf(w, "%-14s %14.0f %14s %8s %12d %12s %10d %10s\n", name, o.NsPerOp, "-", "removed", o.BytesPerOp, "-", o.AllocsPerOp, "-")
		default:
			fmt.Fprintf(w, "%-14s %14.0f %14.0f %+7.1f%% %12d %12d %10d %10d\n", name, o.NsPerOp, n.NsPerOp,
				100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp, o.BytesPerOp, n.BytesPerOp, o.AllocsPerOp, n.AllocsPerOp)
		}
	}
	return nil
}

// readReport reads one BENCH_N.json report.
func readReport(path string) (report, error) {
	var r report
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("parsing %s: %v", path, err)
	}
	return r, nil
}

// printTapeHistogram runs one serial training step at benchmark scale and
// prints its tape's op-kind histogram, most frequent first (ties by name),
// with the record total last.
func printTapeHistogram() {
	hist := benchsuite.TrainStepHistogram()
	names := make([]string, 0, len(hist))
	for name := range hist {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if hist[names[i]] != hist[names[j]] {
			return hist[names[i]] > hist[names[j]]
		}
		return names[i] < names[j]
	})
	total := 0
	for _, name := range names {
		fmt.Printf("%-20s %6d\n", name, hist[name])
		total += hist[name]
	}
	fmt.Printf("%-20s %6d\n", "total records", total)
}
