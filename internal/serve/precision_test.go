package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/perfvec"
)

func TestParsePrecision(t *testing.T) {
	for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	// The float64 oracle is an offline reference, not a serving tier: "f64"
	// is refused like any unknown value, with an error naming what is
	// accepted.
	for _, s := range []string{"f16", "f64"} {
		_, err := ParsePrecision(s)
		if err == nil {
			t.Fatalf("ParsePrecision accepted %s", s)
		}
		if msg := err.Error(); !strings.Contains(msg, "f32") || !strings.Contains(msg, "int8") {
			t.Fatalf("ParsePrecision(%q) error %q does not name f32 and int8", s, msg)
		}
	}
}

// TestSubmitInt8MatchesEngine pins the int8 tier's serving contract: a
// PrecisionInt8 service returns exactly EncodeProgramsQ8's output (bitwise —
// the batcher adds no numeric steps of its own), and that representation
// stays within the int8 drift epsilon of the float64 oracle, range-normalized
// as in perfvec's drift_q8 harness.
func TestSubmitInt8MatchesEngine(t *testing.T) {
	tr := NewTraffic(LoadConfig{Seed: 71, Programs: 6, MinInstrs: 1, MaxInstrs: 80, Requests: 6, Clients: 2},
		perfvec.DefaultConfig().FeatDim)
	s := newTestService(t, 0, func(c *Config) { c.Precision = PrecisionInt8 })
	if s.Precision() != PrecisionInt8 {
		t.Fatalf("service precision = %v, want int8", s.Precision())
	}
	f := s.Model()
	d := f.Cfg.RepDim
	for i := 0; i < tr.Requests(); i++ {
		fs, n := tr.Program(i)
		rep := make([]float32, d)
		if _, err := s.Submit(tr.Client(i), fs, n, rep); err != nil {
			t.Fatalf("Submit: %v", err)
		}

		pd := progData(fs, n, f.Cfg.FeatDim)
		want := [][]float32{make([]float32, d)}
		e := f.AcquireEncoder()
		e.EncodeProgramsQ8([]*perfvec.ProgramData{pd}, want)
		f.ReleaseEncoder(e)
		for j, v := range want[0] {
			if math.Float32bits(rep[j]) != math.Float32bits(v) {
				t.Fatalf("request %d col %d: served %v != engine %v (must be bitwise)", i, j, rep[j], v)
			}
		}

		// Range-normalized epsilon against the float64 oracle (the int8
		// drift contract; see perfvec's drift_q8 harness).
		want64 := [][]float64{make([]float64, d)}
		f.EncodePrograms64([]*perfvec.ProgramData{pd}, want64)
		var maxAbs float64
		for _, v := range want64[0] {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		if maxAbs == 0 {
			continue
		}
		for j := range rep {
			if rel := math.Abs(float64(rep[j])-want64[0][j]) / maxAbs; rel > 5e-2 {
				t.Fatalf("request %d col %d: int8 %v vs oracle %v (range-rel err %.2e)", i, j, rep[j], want64[0][j], rel)
			}
		}
	}
}

// TestPrecisionFleetConcurrent runs the concurrent-fleet race workout at 1,
// 2, and 8 clients under both precisions — the int8 path shares the
// cache, metrics, and batch pools with the fast path, so it needs the same
// -race coverage CI gives TestFleetConcurrent. Follow-up predicts obey
// TestFleetConcurrent's rule: predicted plus missed follow-ups equals the
// request count (with concurrent clients another client's submits can
// evict a key before its follow-up), and with one worker every follow-up
// hits.
func TestPrecisionFleetConcurrent(t *testing.T) {
	f := perfvec.NewFoundation(perfvec.DefaultConfig())
	tr := NewTraffic(LoadConfig{Seed: 67, Programs: 10, MinInstrs: 1, MaxInstrs: 40, Requests: 80, Clients: 8}, f.Cfg.FeatDim)
	for _, prec := range []Precision{PrecisionF32, PrecisionInt8} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/%dworkers", prec, workers), func(t *testing.T) {
				s := newTestService(t, 3, func(c *Config) {
					c.Precision = prec
					c.CacheSize = 8 // eviction churn under load
					c.QueueDepth = tr.Requests()
				})
				st := tr.RunFleet(s, workers)
				if st.Rejected != 0 {
					t.Fatalf("%d requests rejected with admission control disabled", st.Rejected)
				}
				if st.Done != tr.Requests() {
					t.Fatalf("completed %d of %d requests", st.Done, tr.Requests())
				}
				misses := s.Metrics().PredictMisses.Load()
				if got := st.Predicted + int(misses); got != tr.Requests() {
					t.Fatalf("predicted %d + missed %d follow-ups, want %d", st.Predicted, misses, tr.Requests())
				}
				if workers == 1 && st.Predicted != tr.Requests() {
					t.Fatalf("predicted %d of %d follow-ups with one worker", st.Predicted, tr.Requests())
				}
			})
		}
	}
}
