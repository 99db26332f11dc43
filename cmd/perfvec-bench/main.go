// Command perfvec-bench runs the repo's tracked micro-benchmarks
// (BenchmarkMatMul/MatMul32/MatMulQ8, BenchmarkBatch, BenchmarkTrainStep,
// the BenchmarkEncodeF32/EncodeQ8 serving-tier pair, the
// BenchmarkServe* serving suite, and the BenchmarkSweep/SweepNaive
// design-space sweep pair) through testing.Benchmark and writes the
// results as JSON, so the performance trajectory of the training and
// serving hot paths is recorded across PRs (BENCH_10.json is this PR's
// snapshot). The report's machine section records the active SIMD kernel
// sets (AVX2/FMA, the VPMADDUBSW int8 dot kernel) and the CPUID-detected
// cache geometry with the GEMM blocking tuned from it, so kernel-sensitive
// numbers are interpretable across machines; the header line logs the same.
// With -budget it also enforces a checked-in allocation budget: CI fails
// when a change makes the training step, the GEMM backend, or the serving
// hot path allocate more than the recorded bound. With -tape-histogram it
// instead runs one serial training step and prints the op-record kind
// histogram of its tape — the record-tape profiling hook for inspecting the
// step graph's op mix.
//
// Usage:
//
//	perfvec-bench [-o BENCH_10.json] [-budget bench_budget.json] [-tape-histogram]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

// budget is the schema of bench_budget.json: per-benchmark ceilings.
type budget map[string]struct {
	MaxAllocsPerOp int64 `json:"max_allocs_per_op"`
}

func main() {
	out := flag.String("o", "BENCH_10.json", "output JSON path (\"-\" for stdout)")
	budgetPath := flag.String("budget", "", "allocation budget JSON to enforce (exit 1 on regression)")
	tapeHist := flag.Bool("tape-histogram", false, "print the op-record kind histogram of one training step and exit")
	flag.Parse()

	if *tapeHist {
		printTapeHistogram()
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
		{"Batch", benchsuite.Batch},
		{"TrainStep", benchsuite.TrainStep},
		{"EncodeF32", benchsuite.EncodeF32},
		{"EncodeQ8", benchsuite.EncodeQ8},
		{"Serve", benchsuite.Serve},
		{"ServeNaive", benchsuite.ServeNaive},
		{"ServeSubmitHit", benchsuite.ServeSubmitHit},
		{"ServePredict", benchsuite.ServePredict},
		{"Sweep", benchsuite.Sweep},
		{"SweepNaive", benchsuite.SweepNaive},
	}
	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Machine:     mach,
		Results:     make(map[string]result, len(benches)),
	}
	for _, b := range benches {
		r := testing.Benchmark(b.fn)
		rep.Results[b.name] = result{
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%-12s %10d ns/op %12d B/op %8d allocs/op\n",
			b.name, int64(rep.Results[b.name].NsPerOp), r.AllocedBytesPerOp(), r.AllocsPerOp())
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
	for name, lim := range bud {
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
	}
	if failed {
		os.Exit(1)
	}
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
