package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// withQ8 runs fn under each available quantized kernel dispatch path,
// mirroring withFMA: the SIMD path only exists where the host supports it;
// the portable path runs everywhere.
func withQ8(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	orig := useQ8
	defer func() { useQ8 = orig }()
	useQ8 = false
	t.Run("portable", fn)
	if orig {
		useQ8 = true
		t.Run("simd", fn)
	}
}

// refMatMulQ8 is the straight-line reference for the quantized GEMM: the
// identical quantization expressions (quantizeRowU8/quantizeU8 for
// activations, the QuantizeWeightsBT rounding for weights), the identical
// per-quad saturating accumulation, and the identical dequantization
// epilogue, with no packing, blocking, or parallelism. Because every
// floating-point expression matches the engine's, outputs must agree
// bit-for-bit, not just approximately.
func refMatMulQ8(dst []float32, x Tensor32, w Tensor32, from, to int, bias []float32, add bool) {
	m, n, k := x.R, w.R, to-from
	kq := (k + gemmQuad - 1) / gemmQuad
	qw := make([]int32, n*kq*gemmQuad) // zero-padded past k
	wScale := make([]float32, n)
	colSum := make([]int32, n)
	for j := 0; j < n; j++ {
		row := w.Data[j*w.C+from : j*w.C+to]
		var maxAbs float32
		for _, v := range row {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		scale := float32(1)
		if maxAbs > 0 {
			scale = maxAbs / 127
		}
		wScale[j] = scale
		for l, v := range row {
			qv := int32(math.Round(float64(v) / float64(scale)))
			if qv > 127 {
				qv = 127
			}
			if qv < -127 {
				qv = -127
			}
			qw[j*kq*gemmQuad+l] = qv
			colSum[j] += qv
		}
	}
	qa := make([]int32, kq*gemmQuad)
	for i := 0; i < m; i++ {
		row := x.Data[i*x.C : i*x.C+k]
		scale, zp := quantizeRowU8(row)
		inv := 1 / scale
		zpf := float32(zp) + 0.5
		clear(qa)
		for l, v := range row {
			qa[l] = int32(quantizeU8(v, inv, zpf))
		}
		for j := 0; j < n; j++ {
			wr := qw[j*kq*gemmQuad:]
			var acc int32
			for q := 0; q < kq; q++ {
				acc += sat16(qa[q*4]*wr[q*4]+qa[q*4+1]*wr[q*4+1]) +
					sat16(qa[q*4+2]*wr[q*4+2]+qa[q*4+3]*wr[q*4+3])
			}
			v := float32(acc-zp*colSum[j]) * (scale * wScale[j])
			if bias != nil {
				v += bias[j]
			}
			if add {
				dst[i*n+j] += v
			} else {
				dst[i*n+j] = v
			}
		}
	}
}

// TestMatMulQ8MatchesReference pins the engine — quantize-and-pack,
// KC-blocked saturating integer GEMM, dequant epilogue — to the
// straight-line reference bit-for-bit, across every blocking-boundary shape,
// under both kernel dispatch paths, for all bias/add epilogue combinations.
func TestMatMulQ8MatchesReference(t *testing.T) {
	withQ8(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		var slab Slab32
		for _, sh := range gemmEdgeShapes {
			m, k, n := sh[0], sh[1], sh[2]
			x := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
			w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
			qw := QuantizeWeightsBT(w, 0, k)
			bias := randSlice(rng, n)
			for _, tc := range []struct {
				name string
				bias []float32
				add  bool
			}{{"set", nil, false}, {"bias", bias, false}, {"add", nil, true}} {
				slab.Reset()
				dst := slab.Mat(m, n)
				init := randSlice(rng, m*n)
				copy(dst.Data, init)
				want := append([]float32(nil), init...)
				MatMulQ8Into(&slab, dst, x, qw, tc.bias, tc.add)
				refMatMulQ8(want, x, w, 0, k, tc.bias, tc.add)
				for i := range want {
					if math.Float32bits(dst.Data[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%dx%dx%d %s: elem %d = %v, reference %v (must be bitwise identical)",
							m, k, n, tc.name, i, dst.Data[i], want[i])
					}
				}
			}
		}
	})
}

// TestGEMMQ8AsmMatchesGeneric is the noasm-vs-asm bitwise twin test over the
// gemmEdgeShapes remainder grid: the AVX2 path (VPMADDUBSW kernel and
// vector epilogues) and the portable one must agree on every bit of the
// dequantized output (the accumulators are integers and the epilogues
// repeat the Go float operations in order, so any divergence is a kernel
// semantics bug, not rounding).
func TestGEMMQ8AsmMatchesGeneric(t *testing.T) {
	if !useQ8 {
		t.Skip("host lacks AVX2; only the generic quantized path exists")
	}
	orig := useQ8
	defer func() { useQ8 = orig }()
	rng := rand.New(rand.NewSource(37))
	var slab Slab32
	for _, sh := range gemmEdgeShapes {
		m, k, n := sh[0], sh[1], sh[2]
		x := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
		w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
		qw := QuantizeWeightsBT(w, 0, k)
		init := randSlice(rng, m*n)
		slab.Reset()
		gotAsm := slab.Mat(m, n)
		gotGen := slab.Mat(m, n)
		copy(gotAsm.Data, init)
		copy(gotGen.Data, init)
		useQ8 = true
		MatMulQ8Into(&slab, gotAsm, x, qw, nil, true)
		useQ8 = false
		MatMulQ8Into(&slab, gotGen, x, qw, nil, true)
		for i := range gotAsm.Data {
			if math.Float32bits(gotAsm.Data[i]) != math.Float32bits(gotGen.Data[i]) {
				t.Fatalf("%dx%dx%d: elem %d differs bitwise: asm %v (% x) vs generic %v (% x)",
					m, k, n, i, gotAsm.Data[i], gotAsm.Data[i], gotGen.Data[i], gotGen.Data[i])
			}
		}
	}
}

// TestGEMMQ8MicroSaturation pins the kernels' i16 saturation semantics on
// synthetic out-of-range bytes. Engine-produced activation codes are 7-bit,
// so saturation never engages in a real GEMM (quant.go explains the bound);
// but the semantics are hardware-defined by VPMADDUBSW and the portable twin
// must clip identically — otherwise a future code-range change would turn
// into silent asm/noasm divergence instead of a test failure.
func TestGEMMQ8MicroSaturation(t *testing.T) {
	if sat16(255*127+255*127) != 32767 {
		t.Fatalf("sat16 upper clamp broken")
	}
	if sat16(-255*127-255*127) != -32768 {
		t.Fatalf("sat16 lower clamp broken")
	}
	// One quad, full 6x16 tile: every activation byte 255 (outside the
	// engine's 7-bit range), weight pairs (+127, +127) in even columns and
	// (-127, -127) in odd — each pair sum is +/-64770 unsaturated, so every
	// lane must read +/-(32767+32767) or +/-(32768+32768) after clipping.
	a := make([]uint8, 24)
	for i := range a {
		a[i] = 255
	}
	b := make([]int8, 64)
	for v := 0; v < 16; v++ {
		w := int8(127)
		if v%2 == 1 {
			w = -127
		}
		for j := 0; j < 4; j++ {
			b[v*4+j] = w
		}
	}
	want := make([]int32, 6*16)
	for i := range want {
		if (i%16)%2 == 0 {
			want[i] = 2 * 32767
		} else {
			want[i] = 2 * -32768
		}
	}
	got := make([]int32, 6*16)
	gemmQ8MicroGeneric(got, a, b, 1, 16)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("generic kernel lane %d = %d, want %d", i, got[i], want[i])
		}
	}
	if !useQ8 {
		t.Skip("host lacks AVX2; asm saturation path not present")
	}
	gotAsm := make([]int32, 6*16)
	gemmQ8Micro6x16(&gotAsm[0], &a[0], &b[0], 1, 16)
	for i := range want {
		if gotAsm[i] != want[i] {
			t.Fatalf("asm kernel lane %d = %d, want %d", i, gotAsm[i], want[i])
		}
	}
}

// TestMatMulQ8ParallelMatchesSerial pins worker-count independence down to
// the bit, like TestGEMMParallelMatchesSerial does for the f32 engine: the
// integer accumulation per element is partition-independent and the
// quantize/dequant passes are per-row independent.
func TestMatMulQ8ParallelMatchesSerial(t *testing.T) {
	withQ8(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		var slab Slab32
		// {97,33,10}: one column strip at GOMAXPROCS=4 forces the row
		// partition against the serial column partition.
		for _, sh := range [][3]int{{61, 67, 57}, {128, 64, 128}, {97, 33, 10}, {12, 40, 200}} {
			m, k, n := sh[0], sh[1], sh[2]
			x := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
			w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
			qw := QuantizeWeightsBT(w, 0, k)
			slab.Reset()
			serial := slab.Mat(m, n)
			parallel := slab.Mat(m, n)
			prev := runtime.GOMAXPROCS(1)
			MatMulQ8Into(&slab, serial, x, qw, nil, false)
			runtime.GOMAXPROCS(4)
			MatMulQ8Into(&slab, parallel, x, qw, nil, false)
			runtime.GOMAXPROCS(prev)
			for i := range serial.Data {
				if math.Float32bits(serial.Data[i]) != math.Float32bits(parallel.Data[i]) {
					t.Fatalf("%dx%dx%d: elem %d differs bitwise: % x vs % x",
						m, k, n, i, serial.Data[i], parallel.Data[i])
				}
			}
		}
	})
}

// TestMatMulQ8Accuracy is a coarse engine-level sanity bound: quantized
// outputs track the f32 GEMM within a few percent of the row's dynamic range
// on unconditioned N(0,1) data (7-bit activation codes mean no saturation
// outliers — see quant.go). The real accuracy gate is the int8 drift harness
// in internal/perfvec (model-level, against the f64 oracle, with a pinned
// epsilon).
func TestMatMulQ8Accuracy(t *testing.T) {
	withQ8(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		var slab Slab32
		const m, k, n = 64, 96, 48
		x := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
		w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
		qw := QuantizeWeightsBT(w, 0, k)
		got := slab.Mat(m, n)
		MatMulQ8Into(&slab, got, x, qw, nil, false)
		want := make([]float32, m*n)
		refNT(want, x.Data, w.Data, m, k, n)
		// Error scale: one quantization step per operand across a k-deep sum;
		// normalize per row by the largest reference magnitude.
		for i := 0; i < m; i++ {
			var rowMax float64
			for j := 0; j < n; j++ {
				rowMax = math.Max(rowMax, math.Abs(float64(want[i*n+j])))
			}
			for j := 0; j < n; j++ {
				diff := math.Abs(float64(got.Data[i*n+j]) - float64(want[i*n+j]))
				if diff > 0.05*math.Max(rowMax, 1) {
					t.Fatalf("elem (%d,%d): quantized %v vs f32 %v (diff %v, row max %v)",
						i, j, got.Data[i*n+j], want[i*n+j], diff, rowMax)
				}
			}
		}
	})
}

// TestMatMulQ8AllZeroRows pins the exact-zero contract: an all-zero
// activation row quantizes to scale 1 / zero-point 0, every product is
// exactly zero, and the output row is exactly the bias (or exact zero
// without one) — the property that keeps window padding invisible.
func TestMatMulQ8AllZeroRows(t *testing.T) {
	withQ8(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		var slab Slab32
		const m, k, n = 9, 51, 32
		x := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
		clear(x.Data[2*k : 3*k]) // row 2 all zero
		clear(x.Data[8*k : 9*k]) // last (tile-remainder) row all zero
		w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
		qw := QuantizeWeightsBT(w, 0, k)
		bias := randSlice(rng, n)
		got := slab.Mat(m, n)
		MatMulQ8Into(&slab, got, x, qw, bias, false)
		for _, row := range []int{2, 8} {
			for j := 0; j < n; j++ {
				if math.Float32bits(got.Data[row*n+j]) != math.Float32bits(bias[j]) {
					t.Fatalf("zero row %d col %d: %v, want exactly bias %v", row, j, got.Data[row*n+j], bias[j])
				}
			}
		}
		noBias := slab.Mat(m, n)
		MatMulQ8Into(&slab, noBias, x, qw, nil, false)
		for _, row := range []int{2, 8} {
			for j := 0; j < n; j++ {
				if v := noBias.Data[row*n+j]; v != 0 {
					t.Fatalf("zero row %d col %d: %v, want exact zero", row, j, v)
				}
			}
		}
	})
}

// TestMatMulQ8SlabSteadyState pins the scratch discipline: after the first
// call warms the slab's quantization pools, repeated quantized GEMMs perform
// no further backing growths and no heap allocations.
func TestMatMulQ8SlabSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var slab Slab32
	const m, k, n = 64, 51, 128
	x := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
	w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
	qw := QuantizeWeightsBT(w, 0, k)
	dst := slab.Mat(m, n)
	pass := func() { MatMulQ8Into(&slab, dst, x, qw, nil, false) }
	for i := 0; i < 3; i++ {
		pass()
	}
	grows := slab.Grows()
	for i := 0; i < 5; i++ {
		pass()
	}
	if g := slab.Grows(); g != grows {
		t.Fatalf("warm MatMulQ8 grew the slab %d more times", g-grows)
	}
	if raceEnabled {
		return // the race detector's own allocations break AllocsPerRun
	}
	if a := testing.AllocsPerRun(20, pass); a > 0 {
		t.Fatalf("steady-state MatMulQ8 allocates %.1f/op, want 0", a)
	}
}

// TestMatMulQ8KeepsSlabPasses pins the folded arena: MatMulQ8Into resets
// only the slab's quantization pools, so a matrix taken before the call
// keeps its contents, a Mat taken after it does not alias one taken before,
// and Peak covers every pool — a fresh slab reserved to a pass's peak
// repeats that pass without growing.
func TestMatMulQ8KeepsSlabPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const m, k, n = 40, 51, 128
	w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
	qw := QuantizeWeightsBT(w, 0, k)
	xData := randSlice(rng, m*k)
	pass := func(s *Slab32) (x, dst Tensor32) {
		s.Reset()
		x = s.Mat(m, k)
		copy(x.Data, xData)
		dst = s.Mat(m, n)
		MatMulQ8Into(s, dst, x, qw, nil, false)
		MatMulQ8(s, x, qw, nil)
		s.Mats(3)
		after := s.Mat(m, n)
		for i := range after.Data {
			after.Data[i] = -1
		}
		return x, dst
	}

	var s Slab32
	pass(&s)
	s.Reserve(s.Peak()) // every take of the next pass lands in one array
	x, dst := pass(&s)
	// after was filled last: an alias of x or dst would have overwritten it.
	for i, v := range x.Data {
		if v != xData[i] {
			t.Fatalf("input element %d = %v after a later Mat, want %v", i, v, xData[i])
		}
	}
	want := make([]float32, m*n)
	var ref Slab32
	MatMulQ8Into(&ref, Tensor32{Data: want, R: m, C: n}, Tensor32{Data: xData, R: m, C: k}, qw, nil, false)
	for i, v := range dst.Data {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("output element %d = %v after a later Mat, want %v", i, v, want[i])
		}
	}
	var fresh Slab32
	fresh.Reserve(s.Peak())
	grows := fresh.Grows()
	pass(&fresh)
	if g := fresh.Grows(); g != grows {
		t.Fatalf("slab reserved to a pass's peak grew %d times repeating it", g-grows)
	}
}

// benchMatMulQ8 mirrors benchGEMM's 256-cubed shape for the acceptance
// comparison against the f32 engine.
func BenchmarkMatMulQ8(b *testing.B) {
	const m, k, n = 256, 256, 256
	rng := rand.New(rand.NewSource(1))
	var slab Slab32
	x := Tensor32{Data: randSlice(rng, m*k), R: m, C: k}
	w := Tensor32{Data: randSlice(rng, n*k), R: n, C: k}
	qw := QuantizeWeightsBT(w, 0, k)
	dst := slab.Mat(m, n)
	MatMulQ8Into(&slab, dst, x, qw, nil, false) // warm the slab
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulQ8Into(&slab, dst, x, qw, nil, false)
	}
	b.StopTimer()
	ops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
}

// epilogueShapes is the row/reduction/column grid of the epilogue twin
// tests: m straddles the MR=6 row strip, k and n the 8-lane vector width
// and its tails, with the encoder's k=51, k=32, n=128 among them.
var (
	epilogueM = []int{1, 5, 6, 7, 128}
	epilogueK = []int{1, 3, 4, 31, 32, 51, 83}
	epilogueN = []int{1, 15, 16, 128}
)

// epilogueRow fills row with one of the quantize-pack edge patterns, chosen
// by kind: random values, NaN/±Inf/-0 sprinkled at the row's vector and
// tail positions, all-zero (with and without -0), constant, a range whose
// width overflows float32 (scale +Inf), one that underflows it (scale 0),
// and values on the rounding boundaries between codes, where a fused
// x*inv+zpf would pick a different code than the two rounded operations.
func epilogueRow(rng *rand.Rand, row []float32, kind int) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	for l := range row {
		row[l] = float32(rng.NormFloat64())
	}
	spots := []int{0, len(row) / 2, len(row) - 1, rng.Intn(len(row))}
	switch kind % 11 {
	case 1:
		for _, l := range spots {
			row[l] = float32(math.NaN())
		}
	case 2:
		row[spots[1]] = inf
		row[spots[3]] = negZero
	case 3:
		row[spots[0]] = -inf
		row[spots[2]] = float32(math.NaN())
	case 4:
		row[spots[2]], row[spots[0]] = inf, -inf
	case 5:
		for l := range row {
			row[l] = negZero
		}
		row[spots[3]] = 0
	case 6:
		clear(row)
	case 7:
		c := float32(rng.NormFloat64() * 10)
		for l := range row {
			row[l] = c
		}
	case 8:
		for l := range row {
			row[l] = float32(rng.NormFloat64()) * 3e38
		}
		row[spots[0]], row[spots[2]] = 3e38, -3e38
	case 9:
		for l := range row {
			row[l] = float32(rng.NormFloat64()) * 1e-44
		}
	case 10:
		row[0], row[len(row)-1] = -float32(rng.ExpFloat64()), float32(rng.ExpFloat64())
		scale, zp := quantizeRowU8(row)
		for l := 1; l < len(row)-1; l++ {
			row[l] = (float32(rng.Intn(127)-int(zp)) + 0.5) * scale
		}
	}
}

// TestQuantPackAAsmMatchesGeneric is the asm/Go twin test of the
// quantize-pack epilogue: minMaxF32x8 + quantPackU8x8 (with the Go tails)
// against the portable kQuantPackA, compared on every packed byte, every
// row scale's bits and every zero-point.
func TestQuantPackAAsmMatchesGeneric(t *testing.T) {
	if !useQ8 {
		t.Skip("host lacks AVX2; only the generic quantized path exists")
	}
	orig := useQ8
	defer func() { useQ8 = orig }()
	rng := rand.New(rand.NewSource(61))
	for _, m := range epilogueM {
		for _, k := range epilogueK {
			kQ := (k + gemmQuad - 1) / gemmQuad
			x := make([]float32, m*k)
			for i := 0; i < m; i++ {
				epilogueRow(rng, x[i*k:(i+1)*k], i+m+k)
			}
			run := func(simd bool) ([]uint8, []float32, []int32) {
				useQ8 = simd
				ap := make([]uint8, (m+gemmMR-1)/gemmMR*kQ*gemmMR*gemmQuad)
				scale := make([]float32, m)
				zp := make([]int32, m)
				ka := KernelArgs{
					S: [8][]float32{x, scale},
					U: [2][]uint8{ap},
					Z: [3][]int32{zp},
					I: [6]int{k, kQ},
				}
				kQuantPackA(0, m/2, ka)
				kQuantPackA(m/2, m, ka)
				return ap, scale, zp
			}
			apA, scA, zpA := run(true)
			apG, scG, zpG := run(false)
			for i := 0; i < m; i++ {
				if math.Float32bits(scA[i]) != math.Float32bits(scG[i]) || zpA[i] != zpG[i] {
					t.Fatalf("m=%d k=%d row %d: asm scale %v zp %d, generic scale %v zp %d (row %v)",
						m, k, i, scA[i], zpA[i], scG[i], zpG[i], x[i*k:(i+1)*k])
				}
			}
			for b := range apA {
				if apA[b] != apG[b] {
					t.Fatalf("m=%d k=%d packed byte %d: asm %d generic %d", m, k, b, apA[b], apG[b])
				}
			}
		}
	}
}

// TestDequantQ8AsmMatchesGeneric is the asm/Go twin test of the dequantize
// epilogue: dequantQ8Rows against the portable kDequantQ8 loops, bit for
// bit, with bias nil and non-nil in set and add mode. Accumulators are the
// exact dot products a k-deep GEMM of 7-bit codes can produce, or arbitrary
// int32 so that s - zp*colSum wraps; row scales include +Inf and 0 (the
// overflowing and underflowing ranges above), so NaN products occur.
func TestDequantQ8AsmMatchesGeneric(t *testing.T) {
	if !useQ8 {
		t.Skip("host lacks AVX2; only the generic quantized path exists")
	}
	orig := useQ8
	defer func() { useQ8 = orig }()
	rng := rand.New(rand.NewSource(67))
	for _, m := range epilogueM {
		for _, k := range epilogueK {
			for _, n := range epilogueN {
				acc := make([]int32, m*n)
				bound := int64(127 * 127 * k)
				for i := range acc {
					if i%3 == 0 {
						acc[i] = int32(rng.Uint32())
					} else {
						acc[i] = int32(rng.Int63n(2*bound+1) - bound)
					}
				}
				colSum := make([]int32, n)
				wScale := make([]float32, n)
				bias := make([]float32, n)
				for j := range colSum {
					colSum[j] = int32(rng.Intn(2*127*k+1) - 127*k)
					if j%5 == 0 {
						colSum[j] = int32(rng.Uint32())
					}
					wScale[j] = float32(rng.ExpFloat64()) / 127
					bias[j] = float32(rng.NormFloat64())
				}
				aScale := make([]float32, m)
				aZp := make([]int32, m)
				for i := range aScale {
					aScale[i] = float32(rng.ExpFloat64()) / 127
					aZp[i] = int32(rng.Intn(128))
					switch i % 7 {
					case 3:
						aScale[i] = float32(math.Inf(1))
					case 5:
						aScale[i] = 0
					}
				}
				init := randSlice(rng, m*n)
				for _, b := range [][]float32{nil, bias} {
					for _, add := range []bool{false, true} {
						flags := 0
						if add {
							flags = dequantAdd
						}
						run := func(simd bool) []float32 {
							useQ8 = simd
							dst := append([]float32(nil), init...)
							ka := KernelArgs{
								S: [8][]float32{dst, wScale, aScale, b},
								Z: [3][]int32{acc, colSum, aZp},
								I: [6]int{n, flags},
							}
							kDequantQ8(0, m/2, ka)
							kDequantQ8(m/2, m, ka)
							return dst
						}
						got, want := run(true), run(false)
						for e := range got {
							if math.Float32bits(got[e]) != math.Float32bits(want[e]) {
								t.Fatalf("m=%d k=%d n=%d bias=%v add=%v elem %d: asm %v (%08x) generic %v (%08x)",
									m, k, n, b != nil, add, e, got[e], math.Float32bits(got[e]),
									want[e], math.Float32bits(want[e]))
							}
						}
					}
				}
			}
		}
	}
}
