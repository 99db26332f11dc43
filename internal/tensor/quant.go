package tensor

import "math"

// Quantization layer of the int8 inference path (gemmq8.go holds the GEMM
// engine itself). The scheme is the standard gemmlowp/oneDNN inference
// recipe:
//
//   - Weights: per-output-channel symmetric int8. Each output channel j of a
//     [n, k] weight matrix gets scale[j] = maxabs_j / 127 and stores
//     round(w/scale) clamped to [-127, 127] (symmetric — never -128).
//     Quantization happens once, at model load, and the bytes are packed
//     straight into the GEMM engine's NR-column-strip, 4-k-per-quad layout,
//     so serving never re-packs weights.
//   - Activations: dynamic per-row asymmetric 7-bit codes in uint8 bytes.
//     Each row i of the activation matrix gets the affine map
//     q = round(x/scale + zp) over the row's [min, max] range widened to
//     include zero (so real zeros — window padding — quantize exactly and
//     all-zero rows survive bit-exactly), with codes in [0, 127] rather than
//     the full byte range. The sacrificed bit is what makes the integer
//     arithmetic exact: VPMADDUBSW sums adjacent u8*i8 products with i16
//     SATURATION, and with full-range codes 255*127*2 = 64770 overflows
//     32767 — on N(0,1) data roughly 0.2% of pairs clip, each clip a large
//     unbounded output error. With 7-bit codes the pair bound is
//     127*127*2 = 32258 < 32767, so saturation is structurally unreachable
//     and the quantized GEMM computes the exact i32 dot product of the
//     codes. One extra bit of quantization noise (bounded, ~scale/2 per
//     value) is a far better trade than rare unbounded clips. This is the
//     standard pre-VNNI mitigation (oneDNN calls it src-7-bit; FBGEMM
//     restricts the weight range instead).
//
// The integer GEMM then computes acc[i,j] = sum_l qa[i,l] * qw[j,l] (exactly,
// per the paragraph above — the i16 saturation semantics the micro-kernels
// pin never engage on engine-produced codes) and the f32 epilogue removes
// the zero-point term and rescales:
//
//	out[i,j] = (acc[i,j] - zp[i] * colSum[j]) * aScale[i] * wScale[j]
//
// where colSum[j] = sum_l qw[j,l] is precomputed per channel at load.

// gemmQuad is the reduction granularity of the quantized micro-kernel: four
// consecutive k-values per column are consumed by one VPMADDUBSW/VPMADDWD
// pair (one dword broadcast of four activation bytes against 4-byte weight
// groups). Packed operands pad k to a multiple of gemmQuad with zeros —
// zero bytes on both sides contribute exact zero to every accumulator.
const gemmQuad = 4

// QuantizedWeights is a weight matrix quantized per output channel and
// pre-packed for the quantized GEMM engine. It plays the B^T role of
// MatMulBT32: a logical [n, k] layer weight whose rows are output channels.
//
// Pack layout: NR-column strips over the full (padded) reduction dimension.
// Strip t holds output channels [t*NR, t*NR+NR); within a strip, quad q
// holds reduction indices [4q, 4q+4) as
//
//	Pack[(t*KQ+q)*NR*4 + c*4 + j]
//
// for column-in-strip c and k-offset j. Channels past n and reduction
// indices past k are zero-filled. The engine's KC loop addresses a block
// starting at reduction index pc by slicing at quad offset pc/4 — KC is
// always a multiple of gemmQuad (blocking.go rounds to 8) so blocks never
// split a quad.
type QuantizedWeights struct {
	Pack   []int8    // packed strips, ceil(n/NR) * KQ * NR*4 bytes
	Scale  []float32 // [n] per-output-channel dequantization scales
	ColSum []int32   // [n] sum of quantized weights per channel (zero-point term)
	N, K   int       // logical output channels and reduction depth
	KQ     int       // padded quad count: ceil(k / gemmQuad)
}

// QuantizeWeightsBT quantizes columns [from, to) of the [n, lda] weight
// matrix w into a packed per-output-channel int8 image. Layers whose GEMM
// consumes the whole weight pass (0, w.C); the recurrent cells quantize the
// input-projection and recurrent-projection column blocks of their fused
// [x|h] weight separately (the two operands are quantized with different
// row scales, so their products must be dequantized separately; see
// nn's forwardSeqQ8). Runs at model load — not a hot path; allocates freely.
func QuantizeWeightsBT(w Tensor32, from, to int) *QuantizedWeights {
	if from < 0 || to > w.C || from >= to {
		panic("tensor: QuantizeWeightsBT column range out of range")
	}
	n, k := w.R, to-from
	kq := (k + gemmQuad - 1) / gemmQuad
	strips := (n + gemmNR - 1) / gemmNR
	q := &QuantizedWeights{
		Pack:   make([]int8, strips*kq*gemmNR*gemmQuad),
		Scale:  make([]float32, n),
		ColSum: make([]int32, n),
		N:      n,
		K:      k,
		KQ:     kq,
	}
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
		q.Scale[j] = scale
		t, c := j/gemmNR, j%gemmNR
		strip := q.Pack[t*kq*gemmNR*gemmQuad:]
		var sum int32
		for l, v := range row {
			qv := int32(math.Round(float64(v) / float64(scale)))
			if qv > 127 {
				qv = 127
			}
			if qv < -127 {
				qv = -127
			}
			sum += qv
			strip[(l/gemmQuad)*gemmNR*gemmQuad+c*gemmQuad+l%gemmQuad] = int8(qv)
		}
		q.ColSum[j] = sum
	}
	return q
}

// quantizeRowU8 computes the dynamic asymmetric activation parameters of one
// row: the quantization range is the row's [min, max] widened to include
// zero (so zero padding quantizes exactly), scale = (max-min)/127, and
// zp = round(-min/scale) in [0, 127] — 7-bit codes, the saturation-proofing
// described in the file comment. An all-zero row maps to scale 1, zp 0 —
// every quantized byte is 0 and the dequantized product is exactly zero.
// Returns the affine parameters; the caller writes the bytes (packing is
// layout-dependent). kQuantPackA runs the same two steps with the range scan
// split between minMaxF32x8 and rowRangeU8.
//
//perfvec:hotpath
func quantizeRowU8(row []float32) (scale float32, zp int32) {
	return quantParamsU8(rowRangeU8(row, 0, 0))
}

// rowRangeU8 widens [lo, hi] to cover row: the scan skips NaN (it compares
// false) and never replaces +0 by -0, so the result does not depend on how
// a row is split between scans.
//
//perfvec:hotpath
func rowRangeU8(row []float32, lo, hi float32) (float32, float32) {
	for _, v := range row {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// quantParamsU8 turns a row range that includes 0 into quantizeRowU8's
// scale and zero-point.
//
//perfvec:hotpath
func quantParamsU8(lo, hi float32) (scale float32, zp int32) {
	if lo == 0 && hi == 0 {
		return 1, 0
	}
	scale = (hi - lo) / 127
	zp = int32(math.Round(float64(-lo) / float64(scale)))
	if zp < 0 {
		zp = 0
	}
	if zp > 127 {
		zp = 127
	}
	return scale, zp
}

// quantizeU8 maps one activation value through the row's affine parameters,
// clamped to the 7-bit code range [0, 127]. zpf is the zero-point plus 0.5
// (precomputed once per row): adding it and truncating implements half-up
// rounding of x/scale + zp in one float32 add — the result is non-negative
// before the clamp whenever it matters, so Go's truncate-toward-zero
// conversion is floor. It is deliberately free of float64 and math calls,
// and the explicit float32 conversion around the product forbids FMA
// contraction, keeping the value identical on every build. This is the
// portable path and the tail past the last 8 values of a row;
// quantPackU8x8 runs the same operations on 8 lanes.
//
//perfvec:hotpath
func quantizeU8(x, invScale, zpf float32) uint8 {
	q := int32(float32(x*invScale) + zpf)
	if q < 0 {
		q = 0
	}
	if q > 127 {
		q = 127
	}
	return uint8(q)
}
