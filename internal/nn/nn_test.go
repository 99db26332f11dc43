package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randSeq(rng *rand.Rand, seqLen, batch, feat int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, seqLen)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 0.5, batch, feat)
	}
	return xs
}

func TestLinearShapesAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3, true)
	x := tensor.Randn(rng, 1, 2, 4)
	y := l.Forward(nil, x)
	if y.Rows() != 2 || y.Cols() != 3 {
		t.Fatalf("Linear output shape %v", y.Shape)
	}
	if len(l.Params()) != 2 {
		t.Fatalf("Linear with bias should expose 2 params, got %d", len(l.Params()))
	}
	lnb := NewLinear(rng, 4, 3, false)
	if len(lnb.Params()) != 1 {
		t.Fatalf("bias-free Linear should expose 1 param, got %d", len(lnb.Params()))
	}
	if lnb.B != nil {
		t.Fatal("bias-free Linear must not allocate a bias")
	}
}

func TestBiasFreeLinearIsHomogeneous(t *testing.T) {
	// f(2x) == 2 f(x) must hold exactly for a bias-free linear map; this is
	// the property the PerfVec composition theorem rests on.
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 5, 3, false)
	x := tensor.Randn(rng, 1, 1, 5)
	x2 := tensor.Scale(nil, x, 2)
	y := l.Forward(nil, x)
	y2 := l.Forward(nil, x2)
	for i := range y.Data {
		if diff := y2.Data[i] - 2*y.Data[i]; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("homogeneity violated at %d: %v vs %v", i, y2.Data[i], 2*y.Data[i])
		}
	}
}

func TestMLPForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, ActReLU, 6, 8, 2)
	x := tensor.Randn(rng, 1, 5, 6)
	y := m.Forward(nil, x)
	if y.Rows() != 5 || y.Cols() != 2 {
		t.Fatalf("MLP output shape %v", y.Shape)
	}
}

func seqEncoders(rng *rand.Rand, seqLen, feat, dim int) map[string]SeqEncoder {
	return map[string]SeqEncoder{
		"LinearSeq":   NewLinearSeq(rng, seqLen, feat, dim),
		"MLPSeq":      NewMLPSeq(rng, seqLen, feat, dim, 2, dim),
		"LSTM":        NewLSTM(rng, feat, dim, 2),
		"BiLSTM":      NewBiLSTM(rng, feat, dim, 1),
		"GRU":         NewGRU(rng, feat, dim, 2),
		"Transformer": NewTransformer(rng, seqLen, feat, dim, 2, 1),
	}
}

func TestSeqEncodersShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const seqLen, batch, feat, dim = 4, 3, 5, 6
	for name, enc := range seqEncoders(rng, seqLen, feat, dim) {
		xs := randSeq(rng, seqLen, batch, feat)
		out := ForwardSeq(nil, enc, xs)
		if out.Rows() != batch || out.Cols() != enc.OutDim() {
			t.Errorf("%s: output %v, want [%d %d]", name, out.Shape, batch, enc.OutDim())
		}
		if len(enc.Params()) == 0 {
			t.Errorf("%s: no parameters exposed", name)
		}
	}
}

func TestBiLSTMOutDimDoubles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if d := NewBiLSTM(rng, 5, 7, 1).OutDim(); d != 14 {
		t.Fatalf("BiLSTM OutDim = %d, want 14", d)
	}
	if d := NewLSTM(rng, 5, 7, 3).OutDim(); d != 7 {
		t.Fatalf("LSTM OutDim = %d, want 7", d)
	}
}

// TestSeqEncoderGradients gradient-checks the first parameter tensor of every
// sequence-model architecture end to end.
func TestSeqEncoderGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const seqLen, batch, feat, dim = 3, 2, 4, 4
	for name, enc := range seqEncoders(rng, seqLen, feat, dim) {
		xs := randSeq(rng, seqLen, batch, feat)
		for pi, param := range enc.Params() {
			if pi > 1 { // first weight + bias is representative; keep runtime sane
				break
			}
			build := func(tp *tensor.Tape) *tensor.Tensor {
				out := ForwardSeq(tp, enc, xs)
				return tensor.Mean(tp, tensor.Mul(tp, out, out))
			}
			if err := tensor.MaxGradError(param, build, 5e-3); err > 5e-2 {
				t.Errorf("%s param %d: max relative grad error %v", name, pi, err)
			}
		}
	}
}

func TestLSTMDeterministicForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewLSTM(rng, 4, 5, 2)
	xs := randSeq(rng, 3, 2, 4)
	a := ForwardSeq(nil, m, xs)
	b := ForwardSeq(nil, m, xs)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("LSTM forward is not deterministic")
		}
	}
}

func TestMSEKnownValue(t *testing.T) {
	p := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := tensor.FromSlice([]float32{1, 2, 3, 6}, 2, 2)
	l := MSE(nil, p, y)
	if l.Data[0] != 1 { // (0+0+0+4)/4
		t.Fatalf("MSE = %v, want 1", l.Data[0])
	}
}

// TestAdamFitsLinearRegression trains y = xW on synthetic data and checks the
// loss collapses: a smoke test that gradients + Adam together optimize.
func TestAdamFitsLinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	trueW := tensor.Randn(rng, 1, 3, 2)
	x := tensor.Randn(rng, 1, 64, 3)
	y := tensor.MatMul(nil, x, trueW)

	model := NewLinear(rng, 3, 2, false)
	opt := NewAdam(0.05)
	var last float32
	for it := 0; it < 300; it++ {
		tp := tensor.NewTapeArena()
		loss := MSE(tp, model.Forward(tp, x), y)
		tp.Backward(loss)
		opt.Step(model.Params())
		last = loss.Data[0]
	}
	if last > 1e-3 {
		t.Fatalf("Adam failed to fit linear regression: final loss %v", last)
	}
}

func TestStepDecaySchedule(t *testing.T) {
	opt := NewAdam(0.001)
	sched := StepDecay{Every: 10, Factor: 0.1}
	sched.Apply(opt, 0, 0.001)
	if lr := opt.LR(); lr != 0.001 {
		t.Fatalf("epoch 0 LR = %v", lr)
	}
	sched.Apply(opt, 10, 0.001)
	if lr := opt.LR(); lr < 0.00009 || lr > 0.00011 {
		t.Fatalf("epoch 10 LR = %v, want 1e-4", lr)
	}
	sched.Apply(opt, 25, 0.001)
	if lr := opt.LR(); lr < 0.9e-5 || lr > 1.1e-5 {
		t.Fatalf("epoch 25 LR = %v, want 1e-5", lr)
	}
}

func TestClipGradients(t *testing.T) {
	p := tensor.New(2)
	p.Grad = []float32{3, 4} // norm 5
	norm := ClipGradients([]*tensor.Tensor{p}, 1)
	if norm != 5 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if d := p.Grad[0]*p.Grad[0] + p.Grad[1]*p.Grad[1]; d > 1.01 || d < 0.99 {
		t.Fatalf("post-clip norm^2 = %v, want 1", d)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewLSTM(rng, 4, 5, 2)
	dst := NewLSTM(rand.New(rand.NewSource(99)), 4, 5, 2)

	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	xs := randSeq(rng, 3, 2, 4)
	a := ForwardSeq(nil, src, xs)
	b := ForwardSeq(nil, dst, xs)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded model differs from saved model")
		}
	}
}

func TestLoadParamsRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	if err := SaveParams(&buf, NewLinear(rng, 3, 2, true).Params()); err != nil {
		t.Fatal(err)
	}
	err := LoadParams(&buf, NewLinear(rng, 4, 2, true).Params())
	if err == nil {
		t.Fatal("expected error loading mismatched shapes")
	}

	// Equal element counts are not enough: a [16 x 32] table must not load
	// into a [32 x 16] one.
	buf.Reset()
	if err := SaveParams(&buf, []*tensor.Tensor{tensor.New(16, 32)}); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, []*tensor.Tensor{tensor.New(32, 16)}); err == nil {
		t.Fatal("expected error loading a [16 32] tensor into a [32 16] one")
	}
}

func TestOptimizerSkipsNilGrads(t *testing.T) {
	p := tensor.New(3)
	p.Fill(1)
	NewAdam(0.1).Step([]*tensor.Tensor{p})
	for _, v := range p.Data {
		if v != 1 {
			t.Fatal("Adam must not update parameters without gradients")
		}
	}
}
