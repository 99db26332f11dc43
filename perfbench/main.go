// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks the outputs against reference
// implementations, and prints every metric with its unit; the last line of
// standard output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload predict-unseen --seed 1 --seconds 30 --trace 0
//
// Each workload puts its work in a different set of layers and bypasses the
// others, so that an optimisation of one layer shows on one workload and
// leaves another unmoved:
//
//   - predict-unseen: unseen programs through emu, features, the f32 and
//     int8 encoders, the predictor and the DSE sweep. No sim, no trainer, no
//     serve.
//   - collect-train: training programs through emu, features and sim on
//     every training microarchitecture, then the trainer. No batch encode,
//     no sweeper, no serve.
//   - serve-mixed: seeded traffic through serve's HTTP handler, cache,
//     batcher, limiter and sweep endpoint. No emu, features or sim.
//
// Layers are timed from outside, around calls into their public functions.
// With -trace 0 the run reports the end-to-end metrics. With -trace 1 it
// records spans around each layer call (kept in memory and written to the
// -out directory at exit), prints a per-layer table and reports the
// per-layer metrics; the difference between the two runs of a seed is the
// tracing overhead, printed when the untraced result of the same seed and
// binary is in -out.
//
// The end-to-end metrics are defined for every workload; what each one
// measures on each workload is listed in endToEnd.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
)

// setups is how many times a run builds its workload state: set-up time is
// reported as the median, and the last state built is the one measured.
const setups = 5

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Per workload:
//
//	insts_per_s        predict-unseen: program instructions turned into f32
//	                   predictions on every table microarchitecture (trace,
//	                   features, encode, predict) per second.
//	                   collect-train: instructions traced, featurized and
//	                   simulated on every training microarchitecture per
//	                   second.
//	                   serve-mixed: instruction rows of submissions answered
//	                   per second at saturation (closed loop).
//	model_insts_per_s  predict-unseen: the same programs re-encoded on the
//	                   int8 engine and predicted, per second.
//	                   collect-train: training samples (forward, backward,
//	                   optimizer) per second.
//	                   serve-mixed: rows encoded by the batcher per second at
//	                   saturation.
//	op_p50_ms          predict-unseen: median time of one dse.SweepPrograms
//	                   call, every unseen program over the design space.
//	                   collect-train: median time of the simulator phase,
//	                   sim.SimulateAll on every training program in turn,
//	                   on every training microarchitecture.
//	                   serve-mixed: median latency of a cache-miss submit at
//	                   a fixed offered rate.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"insts_per_s", "1/s"},
	{"model_insts_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run. Layers a workload bypasses read
// 0 on it.
var perLayer = []metricDef{
	{"emu.insts", "count"}, {"emu.busy_s", "s"}, {"emu.insts_per_s", "1/s"},
	{"features.rows", "count"}, {"features.busy_s", "s"}, {"features.rows_per_s", "1/s"},
	{"sim.insts", "count"}, {"sim.busy_s", "s"}, {"sim.insts_per_s", "1/s"}, {"sim.cycles", "count"},
	{"perfvec.encode.rows", "count"}, {"perfvec.encode.batches", "count"},
	{"perfvec.encode.busy_s", "s"}, {"perfvec.encode.rows_per_s", "1/s"},
	{"perfvec.encode_q8.rows", "count"}, {"perfvec.encode_q8.batches", "count"},
	{"perfvec.encode_q8.busy_s", "s"}, {"perfvec.encode_q8.rows_per_s", "1/s"},
	{"perfvec.encode_q8.drift_max", "ratio"},
	{"perfvec.predict.calls", "count"}, {"perfvec.predict.busy_s", "s"},
	{"uarch.generate_s", "s"}, {"perfvec.sweeper.setspace_s", "s"},
	{"dse.sweep.configs", "count"}, {"dse.sweep.busy_s", "s"}, {"dse.sweep.configs_per_s", "1/s"},
	{"perfvec.dataset.batch_s", "s"}, {"perfvec.train.epoch_s", "s"}, {"perfvec.train.val_s", "s"},
	{"perfvec.train.samples", "count"}, {"perfvec.train.val_loss", "loss"},
	{"serve.http.submit.count", "count"}, {"serve.http.submit.busy_s", "s"}, {"serve.http.submit.non2xx", "count"},
	{"serve.http.predict.count", "count"}, {"serve.http.predict.busy_s", "s"}, {"serve.http.predict.non2xx", "count"},
	{"serve.http.sweep.count", "count"}, {"serve.http.sweep.busy_s", "s"}, {"serve.http.sweep.non2xx", "count"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.batcher.batches", "count"}, {"serve.batcher.rows_per_batch", "rows"}, {"serve.batcher.coalesced", "count"},
	{"serve.rejected_queue", "count"}, {"serve.rejected_rate", "count"}, {"serve.sweep.configs", "count"},
	{"serve.hit_p50_ms", "ms"}, {"serve.miss_p50_ms", "ms"}, {"serve.miss_p99_ms", "ms"},
	{"serve.sweep_p50_ms", "ms"}, {"serve.sat_rps", "1/s"},
	{"serve.gen.late_p99_ms", "ms"}, {"serve.backlog_max", "count"},
}

// workload is one built workload state, ready to measure.
type workload interface {
	// run measures for budget, then checks the outputs, filling r. tr is
	// nil in the untraced run.
	run(budget time.Duration, tr *Tracer, r *Result) error
	// close stops what the state started.
	close()
}

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(seed uint64) (workload, error){
	"predict-unseen": setupPredict,
	"collect-train":  setupCollect,
	"serve-mixed":    setupServe,
}

// Figure is a named quantity a workload reports beside the metrics.
type Figure struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Check is one output check.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Result collects what a workload run measured and checked.
type Result struct {
	Attempted, Failed int
	Metrics           map[string]float64 // end-to-end values, by metric name
	Layer             map[string]float64 // per-layer values, traced runs only
	Figures           []Figure
	Checks            []Check
	roundRSS          []float64
	rssErr            error
}

// roundStart and roundEnd bracket one round of a timed phase. The peak
// resident set (VmHWM) is reset at the start of a round where the kernel
// allows it and read at the end, so rss_peak_mb is the median round's peak:
// which round a garbage collection falls in then moves it far less than it
// moves the peak of the whole run. Where the reset is refused the reading
// is the peak of the run so far.
func (r *Result) roundStart() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}

func (r *Result) roundEnd() {
	v, err := peakRSSMB()
	r.roundRSS = append(r.roundRSS, v)
	r.rssErr = errors.Join(r.rssErr, err)
}

// timedEnd marks the end of the measured phases, before the output checks.
func (r *Result) timedEnd() {
	r.Metrics["rss_peak_mb"] = median(r.roundRSS)
}

func (r *Result) figure(name, unit string, v float64) {
	r.Figures = append(r.Figures, Figure{name, unit, v})
}

// check records one output check, which passes when failures is 0. The
// failures count against the attempts.
func (r *Result) check(name string, failures int, format string, args ...any) {
	r.Failed += failures
	r.Checks = append(r.Checks, Check{name, failures == 0, fmt.Sprintf(format, args...)})
}

// fails is the failure count of a check that is a single condition.
func fails(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// figureOf returns the value of the named figure (0 when absent).
func figureOf(fs []Figure, name string) float64 {
	for _, f := range fs {
		if f.Name == name {
			return f.Value
		}
	}
	return 0
}

// savedRun is what a run leaves in -out for the other run of its seed.
type savedRun struct {
	Binary  string             `json:"binary"`
	Metrics map[string]float64 `json:"metrics"`
	Figures []Figure           `json:"figures"`
	Env     map[string]string  `json:"env"`
}

func main() {
	if err := runMain(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: predict-unseen, collect-train or serve-mixed")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 30, "measured time")
		trace   = fs.Int("trace", 0, "1: record spans and report per-layer metrics")
		outDir  = fs.String("out", ".bench_build/perfbench", "directory for spans and saved results")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	setupFn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := runEnv()

	var w workload
	setupTimes := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		w, err = setupFn(*seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	var tr *Tracer
	if *trace == 1 {
		tr = newTracer()
	}
	r := &Result{Metrics: map[string]float64{}, Layer: map[string]float64{}}
	budget := time.Duration(*seconds * float64(time.Second))
	runtime.GC()
	err := w.run(budget, tr, r)
	w.close()
	if err != nil {
		return err
	}
	r.Metrics["setup_s"] = median(setupTimes)
	if r.rssErr != nil {
		return r.rssErr
	}

	bin, err := binaryID()
	if err != nil {
		return err
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", *name, *seed))
	other := loadSaved(fmt.Sprintf("%s-trace%d.json", base, 1-*trace), bin)
	if other != nil && *name == "collect-train" {
		for _, f := range []string{"sim.cycles", "train_val_loss"} {
			a, b := figureOf(r.Figures, f), figureOf(other.Figures, f)
			r.check(f+" traced = untraced", fails(a == b), "this run %v, other run %v", a, b)
		}
	}
	if err := saveRun(fmt.Sprintf("%s-trace%d.json", base, *trace), savedRun{bin, r.Metrics, r.Figures, env}); err != nil {
		return err
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "env %s\n", formatEnv(env))
	for _, f := range r.Figures {
		fmt.Fprintf(out, "  %-32s %16.6g %s\n", f.Name, f.Value, f.Unit)
	}
	correct := true
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status, correct = "FAIL", false
		}
		fmt.Fprintf(out, "check %-4s %s: %s\n", status, c.Name, c.Detail)
	}

	defs, vals := endToEnd, r.Metrics
	if tr != nil {
		defs, vals = perLayer, r.Layer
		tr.PrintTable(out, budget)
		if err := tr.WriteSpans(base + "-spans.json"); err != nil {
			return err
		}
		if other != nil {
			fmt.Fprintln(out, "tracing overhead (traced - untraced):")
			for _, m := range endToEnd {
				a, b := r.Metrics[m.name], other.Metrics[m.name]
				fmt.Fprintf(out, "  %-20s %+14.6g %s (%+.2f%%)\n", m.name, a-b, m.unit, 100*(a-b)/b)
			}
		}
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, m := range defs {
		metrics[m.name] = map[string]any{"value": vals[m.name], "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// runEnv records what the numbers depend on besides the code.
func runEnv() map[string]string {
	mr, nr, kc, mc, nc := tensor.BlockingParams()
	l1, l2, _ := tensor.CacheSizes()
	f := tensor.CPUFeatures()
	return map[string]string{
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"go":           runtime.Version(),
		"goarch":       runtime.GOARCH,
		"cpu":          fmt.Sprintf("avx2_fma=%v dot_q8=%v", f.AVX2FMA, f.DotQ8),
		"blocking":     fmt.Sprintf("mr=%d nr=%d kc=%d mc=%d nc=%d l1d=%d l2=%d", mr, nr, kc, mc, nc, l1, l2),
		"grad_workers": strconv.Itoa(gradWorkers),
	}
}

func formatEnv(env map[string]string) string {
	keys := []string{"gomaxprocs", "nproc", "go", "goarch", "cpu", "blocking", "grad_workers"}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(env[k])
	}
	return strings.Join(parts, " ")
}

// peakRSSMB reads the process's peak resident set (VmHWM), which the kernel
// tracks at no cost to the run.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// binaryID fingerprints the running binary, so results saved by a build of
// other code are never compared with this one's.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

func loadSaved(path, bin string) *savedRun {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var s savedRun
	if json.Unmarshal(b, &s) != nil || s.Binary != bin {
		return nil
	}
	return &s
}

func saveRun(path string, s savedRun) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
