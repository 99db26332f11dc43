package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The float64 oracle runs the same row kernels as the tape and the float32
// slab, so the drift harnesses (float32 against float64) compare rounding,
// not kernel logic: a wrong gate index or a dropped term in a shared kernel
// moves both sides alike. TestOracleOpsMatchFormulas closes that gap: it
// checks every oracle op against its formula written out here, element by
// element, independently of the kernel source.

func randTensor64(rng *rand.Rand, r, c int, scale float64) Tensor64 {
	t := NewTensor64(r, c)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	return t
}

func sigmoidRef(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

func checkOp(t *testing.T, op string, got []float64, want func(i int) float64) {
	t.Helper()
	for i, g := range got {
		if w := want(i); !closeTo(g, w) {
			t.Fatalf("%s[%d] = %v, formula gives %v", op, i, g, w)
		}
	}
}

func TestOracleOpsMatchFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, H = 5, 7

	pre := randTensor64(rng, m, 4*H, 2)
	bias := randTensor64(rng, 1, 4*H, 1).Data
	c := randTensor64(rng, m, H, 1)
	h, cNew := LSTMGates64(pre, bias, c)
	gate := func(r, k, j int) float64 { return pre.Data[r*4*H+k*H+j] + bias[k*H+j] }
	cRef := func(i int) float64 {
		r, j := i/H, i%H
		in, forget, cell := sigmoidRef(gate(r, 0, j)), sigmoidRef(gate(r, 1, j)), math.Tanh(gate(r, 2, j))
		return forget*c.Data[i] + in*cell
	}
	checkOp(t, "LSTMGates64 c'", cNew.Data, cRef)
	checkOp(t, "LSTMGates64 h'", h.Data, func(i int) float64 {
		r, j := i/H, i%H
		return sigmoidRef(gate(r, 3, j)) * math.Tanh(cRef(i))
	})

	preG := randTensor64(rng, m, 2*H, 2)
	biasG := randTensor64(rng, 1, 2*H, 1).Data
	hPrev := randTensor64(rng, m, H, 1)
	z, rh := GRUGates64(preG, biasG, hPrev)
	checkOp(t, "GRUGates64 z", z.Data, func(i int) float64 {
		r, j := i/H, i%H
		return sigmoidRef(preG.Data[r*2*H+j] + biasG[j])
	})
	checkOp(t, "GRUGates64 r⊙h", rh.Data, func(i int) float64 {
		r, j := i/H, i%H
		return sigmoidRef(preG.Data[r*2*H+H+j]+biasG[H+j]) * hPrev.Data[i]
	})

	nPre := randTensor64(rng, m, H, 2)
	biasN := randTensor64(rng, 1, H, 1).Data
	hNew := GateCombine64(z, nPre, biasN, hPrev)
	checkOp(t, "GateCombine64", hNew.Data, func(i int) float64 {
		n := math.Tanh(nPre.Data[i] + biasN[i%H])
		return (1-z.Data[i])*n + z.Data[i]*hPrev.Data[i]
	})

	// Logits up to ~±3000 at scale 0.35: e^(scale*x) overflows float64
	// unless the row maximum is subtracted first.
	const n, scale = 9, 0.35
	scores := randTensor64(rng, m, n, 1000)
	att := AttentionSoftmax64(scores, scale)
	for r := 0; r < m; r++ {
		row := scores.Row(r)
		maxv := math.Inf(-1)
		for _, v := range row {
			maxv = math.Max(maxv, scale*v)
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(scale*v - maxv)
		}
		checkOp(t, "AttentionSoftmax64", att.Row(r), func(j int) float64 {
			return math.Exp(scale*row[j]-maxv) / sum
		})
	}

	const eps = 1e-5
	x := randTensor64(rng, m, n, 3)
	gamma := randTensor64(rng, 1, n, 1).Data
	beta := randTensor64(rng, 1, n, 1).Data
	ln := LayerNorm64(x, gamma, beta, eps)
	for r := 0; r < m; r++ {
		row := x.Row(r)
		var mean, varc float64
		for _, v := range row {
			mean += v / n
		}
		for _, v := range row {
			varc += (v - mean) * (v - mean) / n
		}
		checkOp(t, "LayerNorm64", ln.Row(r), func(j int) float64 {
			return (row[j]-mean)/math.Sqrt(varc+eps)*gamma[j] + beta[j]
		})
	}

	a, b := randTensor64(rng, m, n, 2), randTensor64(rng, m, n, 2)
	checkOp(t, "Add64", Add64(a, b).Data, func(i int) float64 { return a.Data[i] + b.Data[i] })
	biased := AddBiasInPlace64(Tensor64{Data: append([]float64(nil), a.Data...), R: m, C: n}, gamma)
	checkOp(t, "AddBiasInPlace64", biased.Data, func(i int) float64 { return a.Data[i] + gamma[i%n] })
	for _, ew := range []struct {
		name string
		op   func(Tensor64) Tensor64
		f    func(float64) float64
	}{
		{"SigmoidInPlace64", SigmoidInPlace64, sigmoidRef},
		{"TanhInPlace64", TanhInPlace64, math.Tanh},
		{"ReLUInPlace64", ReLUInPlace64, func(v float64) float64 { return math.Max(v, 0) }},
	} {
		got := ew.op(Tensor64{Data: append([]float64(nil), a.Data...), R: m, C: n})
		checkOp(t, ew.name, got.Data, func(i int) float64 { return ew.f(a.Data[i]) })
	}

	checkOp(t, "ConcatCols64", ConcatCols64(a, c).Data, func(i int) float64 {
		r, j := i/(n+H), i%(n+H)
		if j < n {
			return a.Data[r*n+j]
		}
		return c.Data[r*H+j-n]
	})
	xs := []Tensor64{a, b, x}
	checkOp(t, "StackRows64", StackRows64(xs, 2).Data, func(i int) float64 {
		return xs[i/n].Data[2*n+i%n]
	})
	// Row b of the gathered matrix starts at row start[b]+1 of the stacked
	// xs and runs on for two rows.
	stacked := Tensor64{Data: append(append(append([]float64(nil), a.Data...), b.Data...), x.Data...), R: 3 * m, C: n}
	start := []int32{int32(m), 0, int32(2*m - 2)}
	gathered := NewTensor64(len(start), 2*n)
	GatherRows64(gathered, stacked, start, 1)
	checkOp(t, "GatherRows64", gathered.Data, func(i int) float64 {
		return stacked.Data[(int(start[i/(2*n)])+1)*n+i%(2*n)]
	})
}
