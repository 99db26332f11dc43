package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// planBytes is the canonical encoding of a plan.
func planBytes(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	gen := map[string]func(seed uint64) []byte{
		"predict": func(s uint64) []byte { return planBytes(t, newPredictPlan(s)) },
		"collect": func(s uint64) []byte { return planBytes(t, newCollectPlan(s)) },
		"serve programs": func(s uint64) []byte {
			return planBytes(t, newServePrograms(s, 51))
		},
		"serve schedule": func(s uint64) []byte {
			return planBytes(t, newServeSchedule(s, 2*time.Second, 64, 64, 48, tableUarchs))
		},
	}
	for name, g := range gen {
		a, b, c := g(7), g(7), g(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

func TestServeScheduleCounts(t *testing.T) {
	s := newServeSchedule(3, 10*time.Second, 0, 64, 48, tableUarchs)
	var n [numKinds]int
	last := time.Duration(-1)
	for _, q := range s.Open {
		n[q.Kind]++
		if q.Due < last {
			t.Fatalf("due times not ascending: %v after %v", q.Due, last)
		}
		last = q.Due
	}
	for k, rate := range openRate {
		if n[k] != int(rate*10) {
			t.Errorf("%s: %d requests, want %d", kindNames[k], n[k], int(rate*10))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want float64
	}{{30, 20}, {40, 20}, {50, 35}, {100, 50}, {1, 15}} {
		if got := percentile([]float64{50, 15, 40, 35, 20}, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	// p90 of 100 samples has exactly 10 beyond it.
	if v, err := tailPercentile(hundred, 90, 10); err != nil || v != 90 {
		t.Errorf("p90 with 10 beyond: %v, %v", v, err)
	}
	if _, err := tailPercentile(hundred, 90, 11); err == nil {
		t.Error("p90 of 100 samples accepted with 11 required beyond")
	}
	if _, err := tailPercentile(hundred, 99, 10); err == nil {
		t.Error("p99 of 100 samples accepted with 10 required beyond")
	}
}

func TestMissLimitFailures(t *testing.T) {
	for _, c := range []struct{ over, n, want int }{
		{0, 2100, 0}, {21, 2100, 0}, {22, 2100, 22}, {0, 50, 0}, {1, 50, 1}, {1, 100, 0}, {2, 100, 2},
	} {
		if got := limitFailures(c.over, c.n); got != c.want {
			t.Errorf("%d of %d over the limit: %d failures, want %d", c.over, c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 || xs[0] != 4 {
		t.Errorf("median = %v, input %v", m, xs)
	}
}

// fakeClock is a synthetic phase clock: sleeping advances it, and a
// dispatch can stall it.
type fakeClock struct {
	t         time.Duration
	overshoot time.Duration // added to every sleep, as a real timer overshoots
}

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d + c.overshoot }
func (c *fakeClock) stall(d time.Duration) { c.t += d }

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func durations(vs ...float64) []time.Duration {
	var out []time.Duration
	for _, v := range vs {
		out = append(out, ms(v))
	}
	return out
}

func TestOpenLoopLatenessOnStall(t *testing.T) {
	due := durations(0, 10, 20, 30, 45, 100)
	c := &fakeClock{}
	var sent []time.Duration
	late := openLoop(due, c.now, c.sleep, func(i int) {
		sent = append(sent, c.t)
		if i == 2 {
			c.stall(ms(50)) // the generator stalls for 50ms after sending request 2
		}
	})
	// Requests 3 and 4 fell due during the stall: each is charged the wait
	// from its own due time to the stall's end (t = 70ms).
	want := durations(0, 0, 0, 40, 25, 0)
	for i := range due {
		if late[i] != want[i] {
			t.Errorf("request %d: late %v, want %v", i, late[i], want[i])
		}
		if sent[i] != due[i]+want[i] {
			t.Errorf("request %d: sent at %v, want %v", i, sent[i], due[i]+want[i])
		}
	}

	c = &fakeClock{overshoot: ms(1)}
	late = openLoop(durations(5, 10), c.now, c.sleep, func(int) {})
	if late[0] != ms(1) || late[1] != ms(1) {
		t.Errorf("timer overshoot not counted as lateness: %v", late)
	}
}

func TestLayerSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(v float64) time.Time { return t0.Add(ms(v)) }
	tr.Record("parent", at(0), at(100), -1, 1)
	// Two overlapping children cover [10, 50]; a third covers [80, 120],
	// of which [80, 100] lies inside the parent.
	tr.Record("child", at(10), at(40), 0, 1)
	tr.Record("child", at(20), at(50), 0, 1)
	tr.Record("child", at(80), at(120), 0, 1)
	got := map[string]LayerStat{}
	for _, l := range tr.Layers() {
		got[l.Name] = l
	}
	if p := got["parent"]; p.Count != 1 || p.Busy != ms(100) || p.Self != ms(40) {
		t.Errorf("parent %+v, want busy 100ms self 40ms", p)
	}
	if c := got["child"]; c.Count != 3 || c.Busy != ms(100) || c.Self != ms(100) {
		t.Errorf("child %+v, want busy = self = 100ms", c)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", -1, 0)
	tr.End(id)
	tr.Add("c", 1)
	if tr.Busy("x") != 0 || tr.Count("x") != 0 || tr.Counter("c") != 0 || id != -1 {
		t.Error("nil tracer recorded something")
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	err := runMain(&out, []string{"-workload", "nope"})
	if err == nil || out.Len() != 0 {
		t.Errorf("unknown workload: err %v, output %q", err, out.String())
	}
}
