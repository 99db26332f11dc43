package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the call. Times are nanoseconds since the tracer started. Parent is the
// index of the enclosing span, -1 at the root; Req groups the spans of one
// request (0 when the span belongs to no request).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// Tracer keeps spans and counters in memory until the run ends. A nil
// *Tracer is the untraced mode: every method is a no-op, so the end-to-end
// run pays one nil check per layer call.
type Tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []Span
	counters map[string]float64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), counters: map[string]float64{}}
}

// Begin opens a span and returns its id for End and for child spans.
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Record adds a closed span whose times were taken by the caller.
func (t *Tracer) Record(name string, start, end time.Time, parent int, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
	t.mu.Unlock()
}

// Add adds v to the named counter.
func (t *Tracer) Add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// LayerStat summarizes the spans of one name.
type LayerStat struct {
	Name  string
	Count int
	Busy  time.Duration // summed span durations
	Self  time.Duration // busy minus the parts covered by child spans
}

// Layers aggregates the closed spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it, so
// concurrent children are not double-subtracted.
func (t *Tracer) Layers() []LayerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*LayerStat{}
	var order []string
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ls := byName[s.Name]
		if ls == nil {
			ls = &LayerStat{Name: s.Name}
			byName[s.Name] = ls
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		ls.Count++
		ls.Busy += time.Duration(d)
		ls.Self += time.Duration(d - covered(children[i], s.Start, s.End))
	}
	out := make([]LayerStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// Busy returns the summed duration of every closed span of name.
func (t *Tracer) Busy(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// Count returns the number of closed spans of name.
func (t *Tracer) Count(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			n++
		}
	}
	return n
}

// Counter returns a counter's value (0 when never set).
func (t *Tracer) Counter(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// WriteSpans writes every span as one JSON document to path.
func (t *Tracer) WriteSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans    []Span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{t.spans, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// PrintTable writes the per-layer table: count, busy and self time, and busy
// time as a share of the timed wall clock (shares of concurrent layers can
// sum past 100%).
func (t *Tracer) PrintTable(w io.Writer, wall time.Duration) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s %8s\n", "layer", "count", "busy_s", "self_s", "wall%")
	for _, l := range t.Layers() {
		fmt.Fprintf(w, "%-28s %9d %12.6f %12.6f %7.1f%%\n", l.Name, l.Count,
			l.Busy.Seconds(), l.Self.Seconds(), 100*l.Busy.Seconds()/wall.Seconds())
	}
}
