package tensor

import (
	"math/rand"
	"testing"
)

// Tests for the typed op-record tape: VJP table completeness, replay
// determinism, and record-storage reuse.

// TestVJPTableComplete asserts every op kind dispatches to a VJP — a nil
// entry would panic mid-Backward the first time that op is recorded.
func TestVJPTableComplete(t *testing.T) {
	for k := opKind(0); k < opKinds; k++ {
		if vjpTable[k] == nil {
			t.Errorf("vjpTable[%d] is nil; every op kind needs a VJP entry", k)
		}
	}
}

func TestOpNamesComplete(t *testing.T) {
	for k := opKind(0); k < opKinds; k++ {
		if opNames[k] == "" {
			t.Errorf("opNames[%d] is empty; every op kind needs a histogram label", k)
		}
	}
}

// TestOpHistogramKnownGraph checks the profiling hook against a graph whose
// op mix is known by construction, and its lifecycle: nil tapes are empty
// and record nothing, Reset clears the counts.
func TestOpHistogramKnownGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 0.5, 4, 4)
	b := Randn(rng, 0.5, 4, 4)
	tp := NewTapeArena()
	x := MatMul(tp, a, b)
	x = Sigmoid(tp, Add(tp, x, MatMul(tp, a, b)))
	loss := Sum(tp, Mul(tp, x, x))
	tp.Backward(loss)

	want := map[string]int{"MatMul": 2, "Add": 1, "Sigmoid": 1, "Mul": 1, "Sum": 1}
	got := tp.OpHistogram()
	if len(got) != len(want) {
		t.Fatalf("histogram has %d kinds %v, want %d %v", len(got), got, len(want), want)
	}
	total := 0
	for name, n := range want {
		if got[name] != n {
			t.Errorf("histogram[%q] = %d, want %d", name, got[name], n)
		}
		total += n
	}
	if tp.Len() != total {
		t.Errorf("tape has %d records but histogram sums to %d", tp.Len(), total)
	}

	if h := (*Tape)(nil).OpHistogram(); len(h) != 0 {
		t.Errorf("nil tape histogram = %v, want empty", h)
	}
	inf := (*Tape)(nil)
	MatMul(inf, a, b)
	if h := inf.OpHistogram(); len(h) != 0 {
		t.Errorf("nil tape histogram after an op = %v, want empty (nothing recorded)", h)
	}
	tp.Reset()
	if h := tp.OpHistogram(); len(h) != 0 {
		t.Errorf("post-Reset histogram = %v, want empty", h)
	}
}

// recordGraph builds a small graph exercising a broad mix of record kinds
// (GEMMs, elementwise, fused gates, softmax, layernorm, stacking) on tp and
// returns the scalar loss plus the parameters whose gradients the tests
// compare.
func recordGraph(tp *Tape, seed int64) (*Tensor, []*Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x := Randn(rng, 0.5, 4, 6)
	w := Randn(rng, 0.5, 8, 6)
	gamma := Randn(rng, 0.2, 8)
	beta := Randn(rng, 0.2, 8)
	bias := Randn(rng, 0.5, 8)
	cell := Randn(rng, 0.5, 4, 2)

	h := MatMulBT(tp, x, w)                 // [4,8]
	h = LayerNorm(tp, h, gamma, beta, 1e-5) // [4,8]
	h = AddBias(tp, h, bias)                // [4,8]
	hs, cs := LSTMGates(tp, h, bias, cell)  // [4,2] x2
	att := AttentionSoftmax(tp, MatMul(tp, hs, Transpose(tp, cs)), 0.5)
	o := MatMul(tp, att, ConcatCols(tp, hs, cs)) // [4,4]
	st := StackRows(tp, []*Tensor{o, o}, 1)      // [2,4]
	loss := Mean(tp, Mul(tp, st, st))
	return loss, []*Tensor{x, w, gamma, beta, bias, cell}
}

// zeroRecordedGrads clears the gradient of every tensor referenced by the
// tape's records (outputs, operands, scratch, variadic operands) plus the
// loss, restoring the pre-Backward gradient state without touching Data.
func zeroRecordedGrads(tp *Tape, loss *Tensor) {
	wipe := func(t *Tensor) {
		if t != nil && t.Grad != nil {
			clear(t.Grad)
		}
	}
	for i := range tp.recs {
		r := &tp.recs[i]
		wipe(r.a)
		wipe(r.b)
		wipe(r.c)
		wipe(r.d)
		wipe(r.out)
		wipe(r.out2)
		wipe(r.s1)
		wipe(r.s2)
		for _, x := range r.ts {
			wipe(x)
		}
	}
	wipe(loss)
}

// TestBackwardReplayDeterminism records one step and runs Backward twice off
// the same records (gradients zeroed in between): the records are read-only
// inputs to the VJP table, so the replay must reproduce every gradient bit.
func TestBackwardReplayDeterminism(t *testing.T) {
	tp := NewTapeArena()
	loss, params := recordGraph(tp, 99)
	tp.Backward(loss)
	first := make([][]float32, len(params))
	for i, p := range params {
		first[i] = append([]float32(nil), p.Grad...)
	}

	zeroRecordedGrads(tp, loss)
	tp.Backward(loss)
	for i, p := range params {
		for j := range first[i] {
			if p.Grad[j] != first[i][j] {
				t.Fatalf("param %d grad[%d] differs across replays: %v vs %v",
					i, j, first[i][j], p.Grad[j])
			}
		}
	}
}

// TestRecordStorageSteadyState re-records the same graph across Resets: the
// record slice must stop growing after the first pass, like the arena.
func TestRecordStorageSteadyState(t *testing.T) {
	tp := NewTapeArena()
	run := func() {
		tp.Reset()
		loss, _ := recordGraph(tp, 7)
		tp.Backward(loss)
	}
	run()
	recs, warm, _ := tp.Stats()
	if recs == 0 {
		t.Fatal("graph recorded no ops")
	}
	for i := 0; i < 5; i++ {
		run()
	}
	recs2, grows, _ := tp.Stats()
	if recs2 != recs {
		t.Errorf("steady-state record count changed: %d -> %d", recs, recs2)
	}
	if grows != warm {
		t.Errorf("record slice grew %d times after warm-up; steady-state recording must reuse capacity", grows-warm)
	}
}

// TestTensorsSlabPooling checks Tape.Tensors: fresh on a nil tape,
// pooled and recycled (zeroed) on a recording tape.
func TestTensorsSlabPooling(t *testing.T) {
	var nilTape *Tape
	if s := nilTape.Tensors(3); len(s) != 3 {
		t.Fatalf("nil tape Tensors(3) has length %d", len(s))
	}
	tp := NewTapeArena()
	s1 := tp.Tensors(4)
	s1[0] = New(1)
	tp.Reset()
	s2 := tp.Tensors(4)
	if &s1[0] != &s2[0] {
		t.Error("arena tape did not recycle the tensor slab across Reset")
	}
	if s2[0] != nil {
		t.Error("recycled slab not zeroed")
	}
}
