package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// Straightforward reference implementations the blocked kernels are checked
// against: the seed's triple loops, minus the data-dependent zero-skip
// branches (dropped deliberately; see the package comment in matmul.go).

func refNN(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			av := a[i*k+l]
			for j := 0; j < n; j++ {
				dst[i*n+j] += av * b[l*n+j]
			}
		}
	}
}

func refNT(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for l := 0; l < k; l++ {
				sum += a[i*k+l] * b[j*k+l]
			}
			dst[i*n+j] += sum
		}
	}
}

func refTN(dst, a, b []float32, m, k, n int) {
	for l := 0; l < k; l++ {
		for i := 0; i < m; i++ {
			av := a[i*k+l]
			for j := 0; j < n; j++ {
				dst[l*n+j] += av * b[i*n+j]
			}
		}
	}
}

// gemmShapes covers tile-aligned sizes, odd and prime sizes that do not
// divide any block dimension, degenerate single-row/col cases, and the
// model-sized shapes the trainer actually produces.
var gemmShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {2, 3, 4}, {5, 7, 3}, {3, 1, 5},
	{4, 4, 4}, {8, 8, 8}, {16, 16, 16},
	{63, 65, 67}, {64, 64, 64}, {65, 64, 63}, {61, 127, 31},
	{33, 129, 65}, {127, 61, 97}, {256, 83, 128},
}

// gemmEdgeShapes puts every blocking parameter of the packed engine at a
// boundary remainder: MR/NR micro-tile edges, MC row-block edges, KC
// reduction-block edges (the second KC block re-loads the C tile), and NC
// column-panel edges, each at exact, -1, and +1 sizes, plus degenerate
// single-row/column cases.
var gemmEdgeShapes = [][3]int{
	{1, 1, 1}, {1, gemmKC, 1}, {1, 3, gemmNR + 1}, {gemmMR + 1, 2, 1},
	{gemmMR - 1, 5, gemmNR - 1}, {gemmMR, 5, gemmNR}, {gemmMR + 1, 5, gemmNR + 1},
	{2*gemmMR + 3, gemmKC - 1, 2*gemmNR + 5},
	{gemmMC - 1, gemmKC, 31}, {gemmMC, gemmKC + 1, gemmNR}, {gemmMC + 1, gemmKC - 1, gemmNR - 1},
	{5, 2*gemmKC + 1, 2 * gemmNR}, {3, 9, gemmNC - 1}, {4, 9, gemmNC}, {5, 9, gemmNC + 1},
	{gemmMC + 5, gemmKC + 9, gemmNR + 7},
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// relClose reports |x-y| <= tol * max(1, |x|, |y|).
func relClose(x, y, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return math.Abs(x-y) <= tol*scale
}

// withFMA runs fn under each available kernel dispatch path. The SIMD path
// only exists where the host supports it; the portable path runs everywhere.
func withFMA(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	orig := useFMA
	defer func() { useFMA = orig }()
	useFMA = false
	t.Run("portable", fn)
	if orig {
		useFMA = true
		t.Run("simd", fn)
	}
}

func TestGEMMGoldenAgainstReference(t *testing.T) {
	kernels := []struct {
		name string
		fn   func(dst, a, b []float32, m, k, n int)
		ref  func(dst, a, b []float32, m, k, n int)
		// dims maps (m,k,n) to the operand and output lengths.
		dims func(m, k, n int) (la, lb, ld int)
	}{
		{"NN", mmNN, refNN, func(m, k, n int) (int, int, int) { return m * k, k * n, m * n }},
		{"NT", mmNT, refNT, func(m, k, n int) (int, int, int) { return m * k, n * k, m * n }},
		{"TN", mmTN, refTN, func(m, k, n int) (int, int, int) { return m * k, m * n, k * n }},
	}
	for _, kn := range kernels {
		t.Run(kn.name, func(t *testing.T) {
			withFMA(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				for _, sh := range gemmShapes {
					m, k, n := sh[0], sh[1], sh[2]
					la, lb, ld := kn.dims(m, k, n)
					a := randSlice(rng, la)
					b := randSlice(rng, lb)
					got := randSlice(rng, ld) // nonzero dst checks accumulate semantics
					want := append([]float32(nil), got...)
					kn.fn(got, a, b, m, k, n)
					kn.ref(want, a, b, m, k, n)
					for i := range got {
						if !relClose(float64(got[i]), float64(want[i]), 1e-4) {
							t.Fatalf("%dx%dx%d: elem %d = %v, reference %v", m, k, n, i, got[i], want[i])
						}
					}
				}
			})
		})
	}
}

// TestGEMMEdgeGeometryAgainstReference checks every packed-engine boundary
// remainder (see gemmEdgeShapes) against the triple-loop reference, under
// both micro-kernel dispatch paths, with a nonzero dst so the
// load-accumulate-store tile discipline is exercised at every edge.
func TestGEMMEdgeGeometryAgainstReference(t *testing.T) {
	kernels := []struct {
		name string
		fn   func(dst, a, b []float32, m, k, n int)
		ref  func(dst, a, b []float32, m, k, n int)
		dims func(m, k, n int) (la, lb, ld int)
	}{
		{"NN", mmNN, refNN, func(m, k, n int) (int, int, int) { return m * k, k * n, m * n }},
		{"NT", mmNT, refNT, func(m, k, n int) (int, int, int) { return m * k, n * k, m * n }},
		{"TN", mmTN, refTN, func(m, k, n int) (int, int, int) { return m * k, m * n, k * n }},
	}
	for _, kn := range kernels {
		t.Run(kn.name, func(t *testing.T) {
			withFMA(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				for _, sh := range gemmEdgeShapes {
					m, k, n := sh[0], sh[1], sh[2]
					la, lb, ld := kn.dims(m, k, n)
					a := randSlice(rng, la)
					b := randSlice(rng, lb)
					got := randSlice(rng, ld)
					want := append([]float32(nil), got...)
					kn.fn(got, a, b, m, k, n)
					kn.ref(want, a, b, m, k, n)
					for i := range got {
						if !relClose(float64(got[i]), float64(want[i]), 1e-4) {
							t.Fatalf("%dx%dx%d: elem %d = %v, reference %v", m, k, n, i, got[i], want[i])
						}
					}
				}
			})
		})
	}
}

// TestGEMMAsmMatchesGeneric pins the strongest property of the packed
// engine: the assembly micro-kernel and the portable generic micro-kernel
// produce bitwise-identical output — the generic kernel's emulated fused
// multiply-add (fma32) rounds exactly once, like the VFMADD lanes. Runs
// every transpose case over every blocking-boundary shape with identical
// inputs and accumulating (nonzero) destinations.
func TestGEMMAsmMatchesGeneric(t *testing.T) {
	if !useFMA {
		t.Skip("host lacks AVX2+FMA; only the generic path exists")
	}
	orig := useFMA
	defer func() { useFMA = orig }()
	kernels := []struct {
		name string
		fn   func(dst, a, b []float32, m, k, n int)
		dims func(m, k, n int) (la, lb, ld int)
	}{
		{"NN", mmNN, func(m, k, n int) (int, int, int) { return m * k, k * n, m * n }},
		{"NT", mmNT, func(m, k, n int) (int, int, int) { return m * k, n * k, m * n }},
		{"TN", mmTN, func(m, k, n int) (int, int, int) { return m * k, m * n, k * n }},
	}
	for _, kn := range kernels {
		t.Run(kn.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for _, sh := range gemmEdgeShapes {
				m, k, n := sh[0], sh[1], sh[2]
				la, lb, ld := kn.dims(m, k, n)
				a := randSlice(rng, la)
				b := randSlice(rng, lb)
				dst := randSlice(rng, ld)
				gotAsm := append([]float32(nil), dst...)
				gotGen := append([]float32(nil), dst...)
				useFMA = true
				kn.fn(gotAsm, a, b, m, k, n)
				useFMA = false
				kn.fn(gotGen, a, b, m, k, n)
				for i := range gotAsm {
					if math.Float32bits(gotAsm[i]) != math.Float32bits(gotGen[i]) {
						t.Fatalf("%dx%dx%d: elem %d differs bitwise: asm %v (% x) vs generic %v (% x)",
							m, k, n, i, gotAsm[i], gotAsm[i], gotGen[i], gotGen[i])
					}
				}
			}
		})
	}
}

// TestGEMMParallelMatchesSerial extends the guarantee checked by perfvec's
// TestInstructionRepsParallelMatchesSerial down to the kernel layer, and
// tightens it to bitwise equality: a given element's accumulation order is
// independent of worker count, so changing GOMAXPROCS must not change a
// single bit of the output.
func TestGEMMParallelMatchesSerial(t *testing.T) {
	kernels := map[string]func(dst, a, b []float32, m, k, n int){
		"NN": mmNN, "NT": mmNT, "TN": mmTN,
	}
	for name, fn := range kernels {
		t.Run(name, func(t *testing.T) {
			withFMA(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				// Odd row counts force different row-remainder handling at
				// different chunk boundaries. At GOMAXPROCS=4, {97,33,10}
				// (one column strip) partitions over row strips while the
				// serial reference runs column-partitioned, so this also
				// pins bitwise identity across the two partition axes; the
				// other shapes have enough column strips for every worker.
				for _, sh := range [][3]int{{61, 67, 57}, {128, 64, 128}, {97, 33, 10}, {33, 64, 257}, {12, 40, 200}} {
					m, k, n := sh[0], sh[1], sh[2]
					a := randSlice(rng, m*k)
					b := randSlice(rng, k*n)
					if name == "TN" {
						b = randSlice(rng, m*n)
					}
					serial := make([]float32, outLen(name, m, k, n))
					parallel := append([]float32(nil), serial...)
					prev := runtime.GOMAXPROCS(1)
					fn(serial, a, b, m, k, n)
					runtime.GOMAXPROCS(4)
					fn(parallel, a, b, m, k, n)
					runtime.GOMAXPROCS(prev)
					for i := range serial {
						if serial[i] != parallel[i] {
							t.Fatalf("%dx%dx%d: elem %d differs bitwise: % x vs % x",
								m, k, n, i, serial[i], parallel[i])
						}
					}
				}
			})
		})
	}
}

// TestGEMMScratchMatchesPool pins the serial slab-scratch path of the
// engine to the pooled parallel path bit for bit, on shapes that fit the
// scratch (the default encoder's range GEMMs, and a reduction two KC blocks
// deep) and on shapes past it (too many rows, more columns than one NC
// panel), which fall back to the pool.
func TestGEMMScratchMatchesPool(t *testing.T) {
	for _, aT := range []bool{false, true} {
		for _, bT := range []bool{false, true} {
			t.Run(fmt.Sprintf("aT=%v,bT=%v", aT, bT), func(t *testing.T) {
				withFMA(t, func(t *testing.T) {
					rng := rand.New(rand.NewSource(11))
					var scratch []float32
					for _, sh := range [][3]int{{135, 51, 128}, {128, 32, 128}, {6, gemmKC + 40, 16}, {61, 67, 57}, {1, 8, gemmNC + 1}, {200, 51, 128}} {
						m, k, n := sh[0], sh[1], sh[2]
						a, b := randSlice(rng, m*k), randSlice(rng, k*n)
						lda, ldb := k, n
						if aT {
							lda = m
						}
						if bT {
							ldb = k
						}
						pooled := make([]float32, m*n)
						onScratch := make([]float32, m*n)
						prev := runtime.GOMAXPROCS(4)
						gemmPacked(nil, pooled, a, b, m, k, n, lda, ldb, n, aT, bT)
						gemmPacked(&scratch, onScratch, a, b, m, k, n, lda, ldb, n, aT, bT)
						runtime.GOMAXPROCS(prev)
						for i := range pooled {
							if pooled[i] != onScratch[i] {
								t.Fatalf("aT=%v bT=%v %dx%dx%d: elem %d differs bitwise: % x vs % x",
									aT, bT, m, k, n, i, pooled[i], onScratch[i])
							}
						}
					}
					if len(scratch) != packSerial {
						t.Fatalf("scratch holds %d floats after the small products, want %d", len(scratch), packSerial)
					}
				})
			})
		}
	}
}

// TestMatMulPackedBT32MatchesMatMulBT32 pins the product on a pre-packed B
// to MatMulBT32 bit for bit: one to three MR row strips with partial ones,
// one and two KC blocks (k = gemmKC+3), and NR/NC column boundaries up to a
// sweep-sized 4096 columns, with the pooled form at GOMAXPROCS 1 and 2
// and the serial form. One operand is repacked for every shape, so each
// shape also runs on storage a larger one left behind.
func TestMatMulPackedBT32MatchesMatMulBT32(t *testing.T) {
	withFMA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		var packed PackedBT32
		var s Slab32
		for _, k := range []int{1, 32, gemmKC + 3} {
			for _, n := range []int{1, 15, 16, 17, gemmNC + 5, 4096} {
				b := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
				PackBT32(&packed, b)
				if packed.N() != n || packed.K() != k {
					t.Fatalf("PackBT32 of [%d x %d] reports N=%d K=%d", n, k, packed.N(), packed.K())
				}
				for _, m := range []int{1, 5, 6, 7, 13} {
					a := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
					s.Reset()
					want := MatMulBT32(&s, a, b)
					for _, procs := range []int{0, 1, 2} {
						var got Tensor32
						if procs == 0 {
							got = MatMulPackedBT32Serial(&s, a, &packed)
						} else {
							prev := runtime.GOMAXPROCS(procs)
							got = MatMulPackedBT32(&s, a, &packed)
							runtime.GOMAXPROCS(prev)
						}
						for i, w := range want.Data {
							if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
								t.Fatalf("%dx%dx%d GOMAXPROCS=%d (0: serial form): elem %d: packed %v, MatMulBT32 %v (must be bitwise identical)",
									m, k, n, procs, i, got.Data[i], w)
							}
						}
					}
				}
			}
		}
	})
}

func outLen(kind string, m, k, n int) int {
	if kind == "TN" {
		return k * n
	}
	return m * n
}

func TestMatMulBTCatMatchesConcat(t *testing.T) {
	withFMA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, sh := range [][3]int{{3, 4, 5}, {9, 13, 7}, {32, 51, 64}} {
			m, xc, hc := sh[0], sh[1], sh[2]
			nOut := 2*hc + 1
			x := Randn(rng, 0.5, m, xc)
			h := Randn(rng, 0.5, m, hc)
			w := Randn(rng, 0.5, nOut, xc+hc)

			tpA := NewTapeArena()
			outA := MatMulBTCat(tpA, x, h, w)
			tpA.Backward(Sum(tpA, Mul(tpA, outA, outA)))
			gxA := append([]float32(nil), x.Grad...)
			ghA := append([]float32(nil), h.Grad...)
			gwA := append([]float32(nil), w.Grad...)
			x.ZeroGrad()
			h.ZeroGrad()
			w.ZeroGrad()

			tpB := NewTapeArena()
			outB := MatMulBT(tpB, ConcatCols(tpB, x, h), w)
			tpB.Backward(Sum(tpB, Mul(tpB, outB, outB)))

			for i := range outA.Data {
				if !relClose(float64(outA.Data[i]), float64(outB.Data[i]), 1e-4) {
					t.Fatalf("forward elem %d: %v vs %v", i, outA.Data[i], outB.Data[i])
				}
			}
			check := func(name string, got, want []float32) {
				t.Helper()
				for i := range got {
					if !relClose(float64(got[i]), float64(want[i]), 1e-3) {
						t.Fatalf("%s grad elem %d: %v vs %v", name, i, got[i], want[i])
					}
				}
			}
			check("x", gxA, x.Grad)
			check("h", ghA, h.Grad)
			check("w", gwA, w.Grad)
		}
	})
}

func TestMatMulBTColsMatchesSlice(t *testing.T) {
	withFMA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for _, sh := range [][4]int{{4, 10, 2, 7}, {16, 32, 8, 16}, {7, 21, 0, 21}} {
			m, c, from, to := sh[0], sh[1], sh[2], sh[3]
			n := m + 3
			a := Randn(rng, 0.5, m, c)
			b := Randn(rng, 0.5, n, c)

			tpA := NewTapeArena()
			outA := MatMulBTCols(tpA, a, b, from, to)
			tpA.Backward(Sum(tpA, Mul(tpA, outA, outA)))
			gaA := append([]float32(nil), a.Grad...)
			gbA := append([]float32(nil), b.Grad...)
			a.ZeroGrad()
			b.ZeroGrad()

			tpB := NewTapeArena()
			outB := MatMulBT(tpB, SliceCols(tpB, a, from, to), SliceCols(tpB, b, from, to))
			tpB.Backward(Sum(tpB, Mul(tpB, outB, outB)))

			for i := range outA.Data {
				if !relClose(float64(outA.Data[i]), float64(outB.Data[i]), 1e-4) {
					t.Fatalf("forward elem %d: %v vs %v", i, outA.Data[i], outB.Data[i])
				}
			}
			for i := range gaA {
				if !relClose(float64(gaA[i]), float64(a.Grad[i]), 1e-3) {
					t.Fatalf("a grad elem %d: %v vs %v", i, gaA[i], a.Grad[i])
				}
			}
			for i := range gbA {
				if !relClose(float64(gbA[i]), float64(b.Grad[i]), 1e-3) {
					t.Fatalf("b grad elem %d: %v vs %v", i, gbA[i], b.Grad[i])
				}
			}
		}
	})
}

func TestGradMatMulBTCat(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := Randn(rng, 0.5, 3, 4)
	h := Randn(rng, 0.5, 3, 2)
	w := Randn(rng, 0.5, 5, 6)
	build := func(tp *Tape) *Tensor { return Sum(tp, MatMulBTCat(tp, x, h, w)) }
	for name, p := range map[string]*Tensor{"x": x, "h": h, "w": w} {
		if err := MaxGradError(p, build, 1e-2); err > 2e-2 {
			t.Errorf("MatMulBTCat/%s: max relative grad error %v", name, err)
		}
	}
}

func TestGradMatMulBTCols(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := Randn(rng, 0.5, 3, 6)
	b := Randn(rng, 0.5, 4, 6)
	build := func(tp *Tape) *Tensor {
		o := MatMulBTCols(tp, a, b, 2, 5)
		return Sum(tp, Mul(tp, o, o))
	}
	for name, p := range map[string]*Tensor{"a": a, "b": b} {
		if err := MaxGradError(p, build, 1e-2); err > 2e-2 {
			t.Errorf("MatMulBTCols/%s: max relative grad error %v", name, err)
		}
	}
}

// cutoffCalls counts kCutoffProbe invocations and records whether any one
// of them received the whole range.
type cutoffCalls struct {
	n, whole atomic.Int32
}

// kCutoffProbe: X=*cutoffCalls; I0=n.
func kCutoffProbe(s, e int, ka KernelArgs) {
	c := ka.X.(*cutoffCalls)
	c.n.Add(1)
	if s == 0 && e == ka.I[0] {
		c.whole.Add(1)
	}
}

func TestParallelKernelCutoff(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// Below the threshold the kernel must receive the whole range at once,
	// even with a second worker available.
	var below cutoffCalls
	ParallelKernel(100, parallelThreshold-1, kCutoffProbe, KernelArgs{I: [6]int{100}, X: &below})
	if below.n.Load() != 1 || below.whole.Load() != 1 {
		t.Fatalf("serial path ran %d chunks (%d whole)", below.n.Load(), below.whole.Load())
	}
	// At the threshold the range splits into one chunk per worker.
	var at cutoffCalls
	ParallelKernel(100, parallelThreshold, kCutoffProbe, KernelArgs{I: [6]int{100}, X: &at})
	if at.n.Load() != 2 || at.whole.Load() != 0 {
		t.Fatalf("parallel path ran %d chunks (%d whole)", at.n.Load(), at.whole.Load())
	}
}

// --- Kernel benchmarks ---
//
// The 256-cubed shape matches the acceptance benchmark in the repo root's
// bench_test.go. Inputs are dense and nonzero: the kernels are branch-free in
// the data (the seed skipped zero multiplicands, which made its timings
// input-dependent), so these numbers depend only on shape.

func benchGEMM(b *testing.B, fn func(dst, a, bb []float32, m, k, n int)) {
	const m, k, n = 256, 256, 256
	rng := rand.New(rand.NewSource(1))
	a := randSlice(rng, m*k)
	bb := randSlice(rng, k*n)
	dst := make([]float32, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, a, bb, m, k, n)
	}
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGEMMNN(b *testing.B) { benchGEMM(b, mmNN) }
func BenchmarkGEMMNT(b *testing.B) { benchGEMM(b, mmNT) }
func BenchmarkGEMMTN(b *testing.B) { benchGEMM(b, mmTN) }

func BenchmarkGEMMPortable(b *testing.B) {
	orig := useFMA
	defer func() { useFMA = orig }()
	useFMA = false
	for _, kn := range []struct {
		name string
		fn   func(dst, a, bb []float32, m, k, n int)
	}{{"NN", mmNN}, {"NT", mmNT}, {"TN", mmTN}} {
		b.Run(kn.name, func(b *testing.B) { benchGEMM(b, kn.fn) })
	}
}

func ExampleMatMulBTCat() {
	x := FromSlice([]float32{1, 2}, 1, 2)
	h := FromSlice([]float32{3}, 1, 1)
	w := FromSlice([]float32{
		1, 0, 0,
		0, 1, 1,
	}, 2, 3)
	out := MatMulBTCat(nil, x, h, w)
	fmt.Println(out.Data)
	// Output: [1 5]
}
