package perfvec

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/uarch"
)

// rowsStream replays a materialized [n x d] feature matrix as a RowStream.
type rowsStream struct {
	feats   []float32
	i, n, d int
}

func (r *rowsStream) Next(out []float32) (bool, error) {
	if r.i >= r.n {
		return false, nil
	}
	copy(out, r.feats[r.i*r.d:(r.i+1)*r.d])
	r.i++
	return true, nil
}

// TestWindowStreamMatchesWindowsFor checks the ring-buffered assembler
// against the materialized window builder at odd window sizes, including a
// window longer than the whole trace, and across batch boundaries.
func TestWindowStreamMatchesWindowsFor(t *testing.T) {
	b, err := bench.ByName("548.exchange2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CollectFeatures(b, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 3, 7, p.N + 5} {
		ws := NewWindowStream(&rowsStream{feats: p.Features, n: p.N, d: p.FeatDim}, window, p.FeatDim)
		pos := 0
		for {
			xs, n, err := ws.NextBatch(64)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			want := WindowsFor(nil, p, pos, pos+n, window)
			for tt := range xs {
				for i, v := range want[tt].Data {
					if xs[tt].Data[i] != v {
						t.Fatalf("window %d: batch at %d slot %d element %d: %v != %v",
							window, pos, tt, i, xs[tt].Data[i], v)
					}
				}
			}
			pos += n
		}
		if pos != p.N {
			t.Fatalf("window %d: stream yielded %d instructions, want %d", window, pos, p.N)
		}
	}
}

// TestWindowStreamShrinkingMaxB checks the buffer-reuse contract when maxB
// shrinks across calls: the stream's reused batch buffers are larger than
// the request, so the returned tensors must still be truncated to exactly n
// rows (a regression here would leak stale rows from the previous batch) and
// the window contents must keep matching the materialized builder.
func TestWindowStreamShrinkingMaxB(t *testing.T) {
	b, err := bench.ByName("548.exchange2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CollectFeatures(b, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	const window = 4
	ws := NewWindowStream(&rowsStream{feats: p.Features, n: p.N, d: p.FeatDim}, window, p.FeatDim)
	pos := 0
	for _, maxB := range []int{128, 32, 32, 64} { // shrink after the first batch
		xs, n, err := ws.NextBatch(maxB)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if got := xs[0].Rows(); got != n {
			t.Fatalf("maxB=%d: batch tensors have %d rows, want n=%d", maxB, got, n)
		}
		want := WindowsFor(nil, p, pos, pos+n, window)
		for tt := range xs {
			for i, v := range want[tt].Data {
				if xs[tt].Data[i] != v {
					t.Fatalf("maxB=%d: slot %d element %d differs", maxB, tt, i)
				}
			}
		}
		pos += n
	}
}

// TestStreamRepMatchesProgramRep demonstrates the acceptance criterion: a
// trace at least 10x longer than the window is featurized and encoded
// through the O(window)-memory streaming path — no trace, feature matrix, or
// representation matrix is ever materialized — and the resulting program
// representation is bitwise identical to the materialized ProgramRep.
func TestStreamRepMatchesProgramRep(t *testing.T) {
	b, err := bench.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFoundation(tinyConfig())
	p, err := CollectFeatures(b, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if p.N < 10*f.Cfg.Window {
		t.Fatalf("trace length %d < 10x window %d; memory-bound demonstration needs a longer trace", p.N, f.Cfg.Window)
	}
	want := f.ProgramRep(p)

	// The streaming path: emulator -> StreamExtractor -> ring-buffered
	// window assembly -> chunked encoder, summing representations on the fly.
	rows := features.NewStreamExtractor(b.Stream(1, 2000), nil)
	got, n, err := f.StreamRep(rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != p.N {
		t.Fatalf("StreamRep consumed %d instructions, want %d", n, p.N)
	}
	for j, v := range want {
		if got[j] != v {
			t.Fatalf("rep[%d]: stream %v != materialized %v", j, got[j], v)
		}
	}
}

func TestStreamProgramErrorsMatchesMaterialized(t *testing.T) {
	cfgs := uarch.Predefined()[:3]
	b, err := bench.ByName("519.lbm")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFoundation(tinyConfig())
	table := NewTable(len(cfgs), f.Cfg.RepDim, 42)

	pd, err := CollectProgramData(b, cfgs, 1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	want := ProgramErrors(f, table, pd)
	got, err := StreamProgramErrors(f, table, b, cfgs, 1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d errors, want %d", len(got), len(want))
	}
	for j, v := range want {
		if got[j] != v {
			t.Fatalf("uarch %d: streaming error %v != materialized %v", j, got[j], v)
		}
	}
}
