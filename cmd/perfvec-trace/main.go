// Command perfvec-trace inspects the data pipeline: it executes a benchmark,
// prints trace statistics, the Table I feature vectors of the first few
// instructions, and the per-microarchitecture timing summary — useful when
// debugging new kernels or configurations.
//
// The report comes from one streaming pass: records are featurized and fed
// to every predefined microarchitecture's simulator as the emulator produces
// them, so the trace is never materialized and memory stays bounded
// regardless of -maxinsts.
//
// Usage:
//
//	perfvec-trace -bench 505.mcf -maxinsts 5000 -show 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// traceStats accumulates the report's counters over a record sequence.
type traceStats struct {
	n, loads, stores, branches, taken, faults int
}

func (s *traceStats) observe(r *trace.Record) {
	s.n++
	if r.IsLoad() {
		s.loads++
	}
	if r.IsStore() {
		s.stores++
	}
	if r.IsBranch() {
		s.branches++
		if r.Taken {
			s.taken++
		}
	}
	if r.Fault {
		s.faults++
	}
}

func main() {
	var (
		name     = flag.String("bench", "999.specrand", "benchmark name")
		maxInsts = flag.Int("maxinsts", 10000, "dynamic instruction budget")
		show     = flag.Int("show", 3, "feature vectors to print")
	)
	flag.Parse()

	b, err := bench.ByName(*name)
	if err != nil {
		fatal(err)
	}
	cfgs := uarch.Predefined()
	cpus := make([]*sim.CPU, len(cfgs))
	for j, cfg := range cfgs {
		cpus[j] = sim.New(cfg)
	}
	src := b.Stream(1, *maxInsts)
	ext := features.NewExtractor(4096)
	row := make([]float32, features.NumFeatures)
	var (
		ts    traceStats
		rec   trace.Record
		shown strings.Builder
	)
	for {
		ok, err := src.Next(&rec)
		if err != nil {
			fatal(err)
		}
		if !ok {
			break
		}
		// The first show rows depend only on the first show records, so
		// extraction (and its per-record history bookkeeping) can stop once
		// they are captured.
		if ts.n < *show {
			ext.Extract(&rec, row)
			fmt.Fprintf(&shown, "  inst %d (%v): ", ts.n, rec.Op)
			for _, v := range row {
				fmt.Fprintf(&shown, "%.2g ", v)
			}
			shown.WriteByte('\n')
		}
		ts.observe(&rec)
		for _, cpu := range cpus {
			cpu.Feed(&rec)
		}
	}
	if ts.n == 0 {
		fatal(fmt.Errorf("%s produced an empty trace", b.Name))
	}
	fmt.Printf("%s: %d instructions (%.1f%% loads, %.1f%% stores, %.1f%% branches [%.1f%% taken], %d faults)\n",
		b.Name, ts.n,
		100*float64(ts.loads)/float64(ts.n),
		100*float64(ts.stores)/float64(ts.n),
		100*float64(ts.branches)/float64(ts.n),
		100*float64(ts.taken)/float64(max(ts.branches, 1)),
		ts.faults)

	fmt.Printf("\nfirst %d feature vectors (%d features each, Table I):\n", *show, features.NumFeatures)
	fmt.Print(shown.String())

	fmt.Println("\ntiming across the predefined microarchitectures:")
	tb := &stats.Table{Header: []string{"config", "time (us)", "IPC", "L1D miss%", "mispredict%"}}
	for j, cfg := range cfgs {
		st := cpus[j].Stats()
		missPct := 100 * float64(st.Mem.L1DMisses) / float64(max(st.Mem.L1DAccesses, 1))
		mispPct := 100 * float64(st.Mispredicts) / float64(max(st.Branches, 1))
		tb.Add(cfg.Name, fmt.Sprintf("%.1f", cpus[j].TotalNs()/1000),
			fmt.Sprintf("%.2f", st.IPC()),
			fmt.Sprintf("%.1f", missPct), fmt.Sprintf("%.1f", mispPct))
	}
	fmt.Print(tb.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfvec-trace:", err)
	os.Exit(1)
}
