package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The forward-only float32 path must be bitwise identical to the tape ops:
// same GEMM entry points and same per-element kernel expressions, minus the
// autodiff bookkeeping. Every op twin is pinned here against its tape
// original on random data.

func randTensor(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func asT32(t *Tensor) Tensor32 { return Tensor32{Data: t.Data, R: t.Rows(), C: t.Cols()} }

func wantBitwise(t *testing.T, op string, got []float32, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: %v != %v", op, i, got[i], want[i])
		}
	}
}

func TestInfer32BitwiseMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tp := NewTapeArena()
	s := &Slab32{}
	const m, k, n, H = 9, 23, 17, 8

	a, b := randTensor(rng, m, k), randTensor(rng, k, n)
	wantBitwise(t, "MatMul32",
		MatMul32(s, asT32(a), asT32(b)).Data, MatMul(tp, a, b).Data)

	bt := randTensor(rng, n, k)
	wantBitwise(t, "MatMulBT32",
		MatMulBT32(s, asT32(a), asT32(bt)).Data, MatMulBT(tp, a, bt).Data)

	x, h, w := randTensor(rng, m, k), randTensor(rng, m, 4), randTensor(rng, n, k+4)
	wantBitwise(t, "MatMulBTCat32",
		MatMulBTCat32(s, asT32(x), asT32(h), asT32(w)).Data, MatMulBTCat(tp, x, h, w).Data)

	q, ky := randTensor(rng, m, k), randTensor(rng, m, k)
	wantBitwise(t, "MatMulBTCols32",
		MatMulBTCols32(s, asT32(q), asT32(ky), 3, 11).Data, MatMulBTCols(tp, q, ky, 3, 11).Data)

	// AttentionValue32 against the slice-multiply-concat composition.
	att, v := randTensor(rng, m, m), randTensor(rng, m, n)
	dst := s.Mat(m, n)
	AttentionValue32(s, dst, asT32(att), asT32(v), 0, 5)
	AttentionValue32(s, dst, asT32(att), asT32(v), 5, n)
	ref := ConcatCols(tp, MatMul(tp, att, SliceCols(tp, v, 0, 5)), MatMul(tp, att, SliceCols(tp, v, 5, n)))
	wantBitwise(t, "AttentionValue32", dst.Data, ref.Data)

	c, d := randTensor(rng, m, n), randTensor(rng, m, n)
	wantBitwise(t, "Add32", Add32(s, asT32(c), asT32(d)).Data, Add(tp, c, d).Data)

	bias := randTensor(rng, 1, n)
	ab1 := randTensor(rng, m, n)
	ab2 := FromSlice(append([]float32(nil), ab1.Data...), m, n)
	wantBitwise(t, "AddBiasInPlace32",
		AddBiasInPlace32(asT32(ab1), bias.Data).Data, AddBiasInPlace(tp, ab2, bias).Data)

	for name, pair := range map[string]struct {
		f32 func(Tensor32) Tensor32
		f   func(*Tape, *Tensor) *Tensor
	}{
		"SigmoidInPlace32": {SigmoidInPlace32, SigmoidInPlace},
		"TanhInPlace32":    {TanhInPlace32, TanhInPlace},
		"ReLUInPlace32":    {ReLUInPlace32, ReLUInPlace},
	} {
		e1 := randTensor(rng, m, n)
		e2 := FromSlice(append([]float32(nil), e1.Data...), m, n)
		wantBitwise(t, name, pair.f32(asT32(e1)).Data, pair.f(tp, e2).Data)
	}

	pre4, cell := randTensor(rng, m, 4*H), randTensor(rng, m, H)
	b4 := randTensor(rng, 1, 4*H)
	h32, c32 := LSTMGates32(s, asT32(pre4), b4.Data, asT32(cell))
	hT, cT := LSTMGates(tp, pre4, b4, cell)
	wantBitwise(t, "LSTMGates32 h", h32.Data, hT.Data)
	wantBitwise(t, "LSTMGates32 c", c32.Data, cT.Data)

	pre2, hid := randTensor(rng, m, 2*H), randTensor(rng, m, H)
	b2 := randTensor(rng, 1, 2*H)
	z32, rh32 := GRUGates32(s, asT32(pre2), b2.Data, asT32(hid))
	zT, rhT := GRUGates(tp, pre2, b2, hid)
	wantBitwise(t, "GRUGates32 z", z32.Data, zT.Data)
	wantBitwise(t, "GRUGates32 rh", rh32.Data, rhT.Data)

	nPre, b1 := randTensor(rng, m, H), randTensor(rng, 1, H)
	wantBitwise(t, "GateCombine32",
		GateCombine32(s, z32, asT32(nPre), b1.Data, asT32(hid)).Data,
		GateCombine(tp, zT, nPre, b1, hid).Data)

	sm := randTensor(rng, m, n)
	wantBitwise(t, "AttentionSoftmax32",
		AttentionSoftmax32(s, asT32(sm), 0.25).Data, AttentionSoftmax(tp, sm, 0.25).Data)

	ln := randTensor(rng, m, n)
	gamma, beta := randTensor(rng, 1, n), randTensor(rng, 1, n)
	wantBitwise(t, "LayerNorm32",
		LayerNorm32(s, asT32(ln), gamma.Data, beta.Data, 1e-5).Data,
		LayerNorm(tp, ln, gamma, beta, 1e-5).Data)

	xs := make([]*Tensor, 5)
	xs32 := make([]Tensor32, 5)
	for i := range xs {
		xs[i] = randTensor(rng, m, n)
		xs32[i] = asT32(xs[i])
	}
	wantBitwise(t, "StackRows32",
		StackRows32(s, xs32, 3).Data, StackRows(tp, xs, 3).Data)
	flat := xs[0]
	for _, xi := range xs[1:] {
		flat = ConcatCols(tp, flat, xi)
	}
	// GatherRows32 over the timesteps laid out sample-major reads each
	// sample's window as one contiguous run of rows: the flattened windows.
	rows := s.Mat(m*len(xs32), n)
	start := make([]int32, m)
	for b := range start {
		start[b] = int32(b * len(xs32))
		for i, x := range xs32 {
			copy(rows.Row(b*len(xs32)+i), x.Row(b))
		}
	}
	gathered := s.Mat(m, n*len(xs32))
	GatherRows32(gathered, rows, start, 0)
	wantBitwise(t, "GatherRows32", gathered.Data, flat.Data)
	wantBitwise(t, "ConcatCols32",
		ConcatCols32(s, xs32[0], xs32[1]).Data, ConcatCols(tp, xs[0], xs[1]).Data)
}

// TestBlockingValueInvariance pins the determinism contract that makes
// runtime-tuned KC/MC/NC safe: the packed engine's outputs are bitwise
// invariant to the cache-blocking parameters.
func TestBlockingValueInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, k, n = 67, 300, 131
	a, b := randTensor(rng, m, k), randTensor(rng, k, n)

	kc0, mc0, nc0 := gemmKC, gemmMC, gemmNC
	defer func() { gemmKC, gemmMC, gemmNC = kc0, mc0, nc0 }()

	ref := make([]float32, m*n)
	mmNN(ref, a.Data, b.Data, m, k, n)

	for _, blk := range [][3]int{{128, 36, 128}, {384, 288, 336}, {512, 66, 2048}, {137, 42, 144}} {
		gemmKC, gemmMC, gemmNC = blk[0], blk[1], blk[2]
		got := make([]float32, m*n)
		mmNN(got, a.Data, b.Data, m, k, n)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("blocking %v: element %d differs: %v != %v", blk, i, got[i], ref[i])
			}
		}
	}
}

// TestTuneBlocking checks the tuning rules on known cache geometries,
// including the compile-time default geometry reproducing the defaults.
func TestTuneBlocking(t *testing.T) {
	for _, tc := range []struct {
		l1d, l2    int
		kc, mc, nc int
	}{
		{32 << 10, 512 << 10, 256, 126, 512}, // default geometry
		{48 << 10, 2 << 20, 384, 288, 336},   // wide desktop core
		{1 << 10, 16 << 10, 128, 36, 1024},   // degenerate: clamps engage
	} {
		kc, mc, nc := tuneBlocking(tc.l1d, tc.l2)
		if kc != tc.kc || mc != tc.mc || nc != tc.nc {
			t.Errorf("tuneBlocking(%d, %d) = %d/%d/%d, want %d/%d/%d",
				tc.l1d, tc.l2, kc, mc, nc, tc.kc, tc.mc, tc.nc)
		}
		if kc%8 != 0 || mc%gemmMR != 0 || nc%gemmNR != 0 {
			t.Errorf("tuneBlocking(%d, %d) = %d/%d/%d: granularity violated", tc.l1d, tc.l2, kc, mc, nc)
		}
	}
}

// TestGemm64MatchesFMAChain pins the float64 oracle engine against a direct
// per-element ascending-k FMA chain — the definition it promises to be
// invariant to blocking and parallelism against.
func TestGemm64MatchesFMAChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m, k, n = 33, 700, 29 // k spans multiple KC blocks
	a, b := NewTensor64(m, k), NewTensor64(k, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := MatMul64(a, b)
	bt := NewTensor64(n, k)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			bt.Data[j*k+i] = b.Data[i*n+j]
		}
	}
	gotNT := MatMulBT64(a, bt)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for l := 0; l < k; l++ {
				acc = math.FMA(a.Data[i*k+l], b.Data[l*n+j], acc)
			}
			if got.Data[i*n+j] != acc {
				t.Fatalf("gemm64NN element (%d,%d): %v != %v", i, j, got.Data[i*n+j], acc)
			}
			if gotNT.Data[i*n+j] != acc {
				t.Fatalf("gemm64NT element (%d,%d): %v != %v", i, j, gotNT.Data[i*n+j], acc)
			}
		}
	}
}

// TestSlab32 pins the inference arena's contract: zeroed hand-outs, validity
// across growth, wholesale recycling on Reset, and zero growths once warm.
func TestSlab32(t *testing.T) {
	s := &Slab32{}
	a := s.Mat(1, 100).Data
	for i := range a {
		a[i] = 1
	}
	b := s.Mat(1, 1<<13).Data // forces growth; a must stay valid
	for i := range a {
		if a[i] != 1 {
			t.Fatal("slice invalidated by growth")
		}
	}
	for i := range b {
		if b[i] != 0 {
			t.Fatal("Mat returned non-zero memory")
		}
	}
	ms := s.Mats(3)
	ms[0] = s.Mat(2, 3)
	s.Reset()
	warm := s.Grows()
	for iter := 0; iter < 4; iter++ {
		c := s.Mat(1, 1<<13).Data
		for i := range c {
			if c[i] != 0 {
				t.Fatal("reused memory not re-zeroed")
			}
			c[i] = float32(i)
		}
		ms2 := s.Mats(3)
		if ms2[0].Data != nil {
			t.Fatal("reused Mats headers not cleared")
		}
		s.Reset()
	}
	if s.Grows() != warm {
		t.Fatalf("warm slab grew: %d -> %d", warm, s.Grows())
	}
}

// TestInfer32SteadyStateAllocs pins the forward-only path's steady state on
// a representative op mix: once the slab is warm it never grows again, and
// (on uninstrumented builds, see race_off_test.go) a pass allocates nothing.
func TestInfer32SteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &Slab32{}
	x := asT32(randTensor(rng, 16, 24))
	h := asT32(randTensor(rng, 16, 8))
	w := asT32(randTensor(rng, 32, 32))
	bias := make([]float32, 32)
	cell := asT32(randTensor(rng, 16, 8))
	pass := func() {
		s.Reset()
		pre := MatMulBTCat32(s, x, h, w)
		AddBiasInPlace32(pre, bias)
		LSTMGates32(s, pre, bias, cell)
	}
	for i := 0; i < 3; i++ {
		pass() // warm the slab and its packing scratch
	}
	grows := s.Grows()
	for i := 0; i < 5; i++ {
		pass()
	}
	if g := s.Grows(); g != grows {
		t.Fatalf("warm inference pass grew the slab %d more times", g-grows)
	}
	if raceEnabled {
		return // the race detector's own allocations break AllocsPerRun
	}
	if n := testing.AllocsPerRun(50, pass); n > 0 {
		t.Fatalf("steady-state inference pass allocates %.1f/op, want 0", n)
	}
}
