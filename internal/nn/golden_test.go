package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/tensor"
)

// graphGoldenFile holds TestGraphGolden's recorded values.
const graphGoldenFile = "testdata/graph_golden.json"

// graphGolden is one architecture's recorded behaviour: the float32
// encoding of a seeded batch, and the sum of every parameter's gradient
// (in Params order) after one MSE backward through the tape.
type graphGolden struct {
	Enc  []float64 `json:"enc"`
	Grad []float64 `json:"grad"`
}

// graphGoldenValues runs every architecture of encoders(...) on seeded
// weights and inputs through both ends of the one graph: the float32
// backend's encoding and the tape backend's gradients.
func graphGoldenValues() map[string]graphGolden {
	const featDim, T, batch = 5, 8, 3
	out := map[string]graphGolden{}
	for name, enc := range encoders(rand.New(rand.NewSource(41)), featDim) {
		rng := rand.New(rand.NewSource(43))
		xs, xs32, _ := seqInputs(rng, T, batch, featDim)
		var g graphGolden
		for _, v := range ForwardSeq32(enc, &tensor.Slab32{}, xs32).Data {
			g.Enc = append(g.Enc, float64(v))
		}
		target := tensor.Randn(rng, 1, batch, enc.OutDim())
		tp := tensor.NewTapeArena()
		tp.Backward(MSE(tp, ForwardSeq(tp, enc, xs), target))
		for _, p := range enc.Params() {
			var s float64
			for _, v := range p.EnsureGrad() {
				s += float64(v)
			}
			g.Grad = append(g.Grad, s)
		}
		out[name] = g
	}
	return out
}

// TestGraphGolden guards the wiring of the one graph (infer.go). Every
// backend runs that graph, so the bitwise pins between backends cannot see
// a wiring mistake — a swapped pair of bidirectional halves or a dropped
// residual changes all of them alike. This test compares the float32
// encoding and the training gradients against values recorded before the
// training forward moved onto the graph, when a second, independently
// wired tape forward still agreed with it bit for bit. The tolerance (1e-5
// relative, floored at 1e-2 of the array's largest magnitude, so sums that
// cancel to rounding noise are held absolutely) absorbs last-bit
// differences in the platform's transcendentals.
//
// A deliberate change to an architecture must re-record the file; on
// failure the test logs the current values in the file's format.
func TestGraphGolden(t *testing.T) {
	data, err := os.ReadFile(graphGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]graphGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := graphGoldenValues()
	if len(got) != len(want) {
		t.Errorf("%d architectures, %s records %d", len(got), graphGoldenFile, len(want))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not recorded in %s", name, graphGoldenFile)
			continue
		}
		checkGolden(t, name+" encoding", g.Enc, w.Enc)
		checkGolden(t, name+" gradient sums", g.Grad, w.Grad)
	}
	if t.Failed() {
		cur, _ := json.MarshalIndent(got, "", " ")
		t.Logf("current values:\n%s", cur)
	}
}

func checkGolden(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	var maxAbs float64
	for _, v := range want {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	for i := range got {
		denom := math.Max(math.Abs(want[i]), 1e-2*maxAbs)
		if math.Abs(got[i]-want[i]) > 1e-5*denom {
			t.Errorf("%s: value %d is %v, want %v", what, i, got[i], want[i])
			return
		}
	}
}
