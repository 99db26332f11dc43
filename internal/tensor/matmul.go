package tensor

import "runtime"

// Packed, cache-blocked GEMM engine shared by the forward and backward
// passes — a BLIS-style decomposition replacing the three divergent panel
// implementations the seed kernels grew into.
//
// All three transpose cases (NN, NT, TN) route through one engine,
// gemmPacked, which differs per case only in how the operands are packed:
//
//   - A is packed into MR-row strips: strip s holds rows [s*MR, s*MR+MR) with
//     layout aPack[s*MR*kc + l*MR + r] — the micro-kernel reads MR contiguous
//     floats per k-step and broadcasts each. Rows past m are zero-filled.
//   - B is packed into NR-column strips: strip t holds columns
//     [t*NR, t*NR+NR) with layout bPack[t*NR*kc + l*NR + c] — the
//     micro-kernel loads two 8-wide vectors per k-step. Columns past n are
//     zero-filled.
//
// Around the packed panels sit the standard three blocking loops: KC-deep
// reduction blocks (A is packed once per KC block and shared by every
// worker), NC-wide column panels (each worker packs the B panel for the
// column range it owns), and MC-tall row blocks (the packed-A working set
// streamed against one L1-resident B strip). The innermost unit is the
// MRxNR register-resident micro-kernel: gemmMicro6x16 in gemm_amd64.s keeps
// the full 6x16 accumulator tile in twelve YMM registers across the whole
// k-loop (load C once, fused-multiply-add kc steps, store C once), with
// software prefetch of the upcoming packed panels; gemmMicroGeneric in
// gemm_generic.go is the portable twin with the identical accumulator
// structure, using an exactly emulated fused multiply-add so the two paths
// agree bitwise (see TestGEMMAsmMatchesGeneric).
//
// Every product's packed panels live in its owner's packing scratch: a
// Slab32's, a recording Tape's, or a slice local to a nil-tape call. A
// transposed B that many products share is packed once instead
// (PackedBT32, in the same strip layout): gemmPacked's units read its
// strips in place, and the product packs only A.
//
// Layout is parameterized by leading dimensions (lda/ldb/ldc), which lets
// the fused ops in ops.go (MatMulBTCat, MatMulBTCols) run the engine
// directly on column sub-views of a matrix without materializing copies.
//
// Determinism contract (unchanged from the unpacked engine): every output
// element accumulates its k-products in ascending reduction order through a
// chain of fused multiply-adds, regardless of panel boundaries, tile
// remainders, or worker count. Parallel partitioning is over NR-column
// strips (or MR-row strips for narrow-tall outputs; see gemmPacked), and a
// tile's reduction never crosses workers, so results are bitwise-identical
// between serial and parallel execution (TestGEMMParallelMatchesSerial)
// and between the assembly and portable micro-kernels. The kernels remain
// branch-free in the data: throughput depends only on shape, never on
// input sparsity.

const (
	// gemmMR x gemmNR is the micro-kernel tile: 6 rows x 16 columns = twelve
	// 8-wide YMM accumulators, register-resident across the k-loop (plus two
	// registers for the B vectors and two rotating broadcast registers —
	// all sixteen YMM names). 6x16 is the widest tile AVX2's sixteen YMM
	// names admit: a 6x32 or 8x16 tile would need 24 or 16 accumulators
	// plus B/broadcast registers and spill every k-step.
	gemmMR = 6
	gemmNR = 16
)

// The cache-blocking parameters gemmKC/gemmMC/gemmNC live in blocking.go:
// they are runtime-tuned from the CPUID-detected L1d/L2 sizes at init, with
// the compile-time defaults there as the fallback. Tuning is bitwise-safe —
// see the determinism note in blocking.go.

// packSerial is the size, in float32s, of the packing scratch an owner
// makes at its first product: a slab product whose columns fit one NC panel
// and whose A and B blocks fit it together runs serially on its slab (see
// Slab32.gemm). Every GEMM of the default encoder's row ranges fits.
const packSerial = 1 << 14

// gemmNN computes dst[i*ldc+j] += sum_l a[i*lda+l] * b[l*ldb+j] for
// i in [0,m), j in [0,n), l in [0,k), on tp's packing scratch.
func gemmNN(tp *Tape, dst, a, b []float32, m, k, n, lda, ldb, ldc int) {
	tp.gemm(dst, a, b, m, k, n, lda, ldb, ldc, false, false)
}

// gemmNT computes dst[i*ldc+j] += sum_l a[i*lda+l] * b[j*ldb+l] for
// i in [0,m), j in [0,n), l in [0,k), on tp's packing scratch.
func gemmNT(tp *Tape, dst, a, b []float32, m, k, n, lda, ldb, ldc int) {
	tp.gemm(dst, a, b, m, k, n, lda, ldb, ldc, false, true)
}

// gemmTN computes dst[l*ldc+j] += sum_i a[i*lda+l] * b[i*ldb+j] for
// l in [0,k), j in [0,n), i in [0,m): the output has k rows and the
// reduction runs over m. In the packed engine's terms the "A" operand is
// a^T, selected by the transposed pack orientation.
func gemmTN(tp *Tape, dst, a, b []float32, m, k, n, lda, ldb, ldc int) {
	tp.gemm(dst, a, b, k, m, n, lda, ldb, ldc, true, false)
}

// gemmPacked is the engine: dst[i*ldc+j] += sum_l A[i,l] * B[l,j] for a
// logical m x k A and k x n B, where A is a (aT: read as a^T, so a's storage
// is k x m with leading dimension lda) and B is b (bT: read as b^T, so b's
// storage is n x k with leading dimension ldb), or, when pb is non-nil, the
// B that pb holds packed already (b, ldb and bT are then unused).
//
// scratch is the packing scratch of the product's owner — a Slab32, a
// recording Tape, or a slice local to the call — grown here to hold one KC
// block of packed A followed, unless pb supplies it, by the whole padded B
// block. The KC loop lives here, outside the dispatch: A is packed once per
// KC block and read by every unit, then the units split through
// ParallelKernel as a typed kernel. Column units pack their own NR strips
// of B into their own disjoint regions of the B block; for row units the B
// block is packed here once, before dispatch; a pre-packed B block is read
// in place by either. serial keeps every unit on the calling goroutine:
// the owner's goroutine already has a core to itself, or the product is too
// small to share. Serial and parallel execution give the same bits.
//
//perfvec:hotpath
func gemmPacked(scratch *[]float32, serial bool, dst, a, b []float32, m, k, n, lda, ldb, ldc int, aT, bT bool, pb *PackedBT32) {
	if m == 0 || n == 0 {
		return
	}
	mStrips := (m + gemmMR - 1) / gemmMR
	nStrips := (n + gemmNR - 1) / gemmNR
	mPad, nPad := mStrips*gemmMR, nStrips*gemmNR
	kcMax, bPad := gemmKC, nPad
	if pb != nil {
		kcMax, bPad = pb.kc, 0
	}
	if need := (mPad + bPad) * min(kcMax, k); len(*scratch) < need {
		*scratch = make([]float32, max(need, packSerial)) //perfvec:allow hotalloc -- grow-only owner scratch: once per owner, or when a larger product first needs more
	}
	flags := 0
	if bT {
		flags |= gemmFlagBT
	}
	// Partition axis: column strips are preferred — each unit packs B
	// only for its own column range, so every panel is packed exactly once.
	// Only when the columns cannot feed the pool (fewer NR-column strips
	// than workers) and the rows offer more units does the partition switch
	// to MR-row strips over a (narrow) B packed once up front. Either way
	// the packed A block is shared read-only and a tile's k-reduction never
	// crosses units, so results stay bitwise identical whichever axis is
	// chosen and at any worker count (TestGEMMParallelMatchesSerial
	// compares across both).
	units := nStrips
	if !serial && mStrips > nStrips && nStrips < runtime.GOMAXPROCS(0) {
		units = mStrips
		flags |= gemmFlagRows
	}
	for pc := 0; pc < k; pc += kcMax {
		kc := min(kcMax, k-pc)
		aPack := (*scratch)[:mPad*kc]
		packA(aPack, a, m, kc, pc, lda, aT)
		var bPack, src []float32
		switch {
		case pb != nil:
			bPack = pb.data[nPad*pc : nPad*(pc+kc)]
		case flags&gemmFlagRows != 0:
			bPack = (*scratch)[mPad*kc : (mPad+nPad)*kc]
			packB(bPack, bBlock(b, pc, ldb, bT), 0, n, kc, ldb, bT)
		default:
			bPack, src = (*scratch)[mPad*kc:(mPad+nPad)*kc], bBlock(b, pc, ldb, bT)
		}
		work := m * kc * n
		if serial {
			work = 0
		}
		ParallelKernel(units, work, kGemmPacked, KernelArgs{
			S: [8][]float32{dst, aPack, bPack, src},
			I: [6]int{kc, m, n, ldb, ldc, flags},
		})
	}
}

// packA packs the KC block at reduction index pc of A into MR-row strips.
//
//perfvec:hotpath
func packA(dst, a []float32, m, kc, pc, lda int, aT bool) {
	if aT {
		packAT(dst, a, m, kc, pc, lda)
		return
	}
	packAN(dst, a, m, kc, pc, lda)
}

// bBlock pre-offsets b to the KC block at reduction index pc, so the
// workers need no pc argument: row pc for a normal B, column pc for a
// transposed one.
//
//perfvec:hotpath
func bBlock(b []float32, pc, ldb int, bT bool) []float32 {
	if bT {
		return b[pc:]
	}
	return b[pc*ldb:]
}

// kGemmPacked flag bits (I5).
const (
	gemmFlagBT   = 1 << iota // b is transposed (logical k x n stored n x k)
	gemmFlagRows             // partition units are MR-row strips, not NR-column strips
)

// packAN packs rows of a normal (row-major m x k) A for reduction indices
// [pc, pc+kc) into MR-row strips; rows past m are zero-filled.
func packAN(dst, a []float32, m, kc, pc, lda int) {
	ns := (m + gemmMR - 1) / gemmMR
	for s := 0; s < ns; s++ {
		strip := dst[s*gemmMR*kc : (s+1)*gemmMR*kc]
		for r := 0; r < gemmMR; r++ {
			i := s*gemmMR + r
			if i >= m {
				for l := 0; l < kc; l++ {
					strip[l*gemmMR+r] = 0
				}
				continue
			}
			row := a[i*lda+pc : i*lda+pc+kc]
			for l, v := range row {
				strip[l*gemmMR+r] = v
			}
		}
	}
}

// packAT packs a transposed A (storage k x m reads as logical m x k, the TN
// case): strip s holds logical rows (a-columns) [s*MR, s*MR+MR) over
// reduction (a-row) indices [pc, pc+kc). Each source row contributes MR
// contiguous elements per k-step.
func packAT(dst, a []float32, m, kc, pc, lda int) {
	ns := (m + gemmMR - 1) / gemmMR
	for s := 0; s < ns; s++ {
		strip := dst[s*gemmMR*kc : (s+1)*gemmMR*kc]
		c0 := s * gemmMR
		nr := min(gemmMR, m-c0)
		for l := 0; l < kc; l++ {
			row := a[(pc+l)*lda+c0 : (pc+l)*lda+c0+nr]
			out := strip[l*gemmMR : l*gemmMR+gemmMR]
			copy(out, row)
			for r := nr; r < gemmMR; r++ {
				out[r] = 0
			}
		}
	}
}

// kGemmPacked is the per-unit body of every float32 product: S0=dst,
// S1=packed A (all strips for the current KC block), S2=the padded B
// block's packed strips, S3=b offset to the KC block, or nil when S2
// already holds every strip; I0=kc, I1=m, I2=n, I3=ldb, I4=ldc,
// I5=gemmFlag bits. The partition units [s0,s1) are NR-column strips — the
// unit packs its own strips of S3, NC columns at a time, into its own
// region of S2 and covers all rows — or, for narrow-tall outputs, MR-row
// strips covering all columns of the packed block.
//
//perfvec:hotpath
func kGemmPacked(s0, s1 int, ka KernelArgs) {
	dst, aPack, bPack, b := ka.S[0], ka.S[1], ka.S[2], ka.S[3]
	kc, m, n, ldb, ldc, flags := ka.I[0], ka.I[1], ka.I[2], ka.I[3], ka.I[4], ka.I[5]
	if flags&gemmFlagRows != 0 {
		gemmTiles(dst, aPack, bPack, kc, n, ldc, s0*gemmMR, min(s1*gemmMR, m), 0, n)
		return
	}
	j1 := min(s1*gemmNR, n)
	for jc := s0 * gemmNR; jc < j1; jc += gemmNC {
		nc := min(gemmNC, j1-jc)
		panel := bPack[jc*kc:]
		if b != nil {
			packB(panel, b, jc, nc, kc, ldb, flags&gemmFlagBT != 0)
		}
		gemmTiles(dst, aPack, panel, kc, n, ldc, 0, m, jc, nc)
	}
}

// packB packs columns [jc, jc+nc) of the KC block b into NR-column strips.
//
//perfvec:hotpath
func packB(dst, b []float32, jc, nc, kc, ldb int, bT bool) {
	if bT {
		packBT(dst, b, jc, nc, kc, ldb)
		return
	}
	packBN(dst, b, jc, nc, kc, ldb)
}

// gemmTiles runs the micro-kernel over every MR x NR tile of output rows
// [i0,i1) and columns [jc,jc+nc) of one KC block, streaming the packed-A
// strips against each L1-resident B strip. bPack holds the column range's
// packed NR strips, strip t at bPack[t*NR*kc:]: the panel a column unit of
// kGemmPacked packs, or a slice of a packed B block.
//
//perfvec:hotpath
func gemmTiles(dst, aPack, bPack []float32, kc, n, ldc, i0, i1, jc, nc int) {
	var tile [gemmMR * gemmNR]float32 // C scratch for boundary tiles
	ncStrips := (nc + gemmNR - 1) / gemmNR
	for ic := i0; ic < i1; ic += gemmMC {
		mc := min(gemmMC, i1-ic)
		for t := 0; t < ncStrips; t++ {
			bs := bPack[t*gemmNR*kc:]
			jt := jc + t*gemmNR
			nr := min(gemmNR, n-jt)
			for ir := 0; ir < mc; ir += gemmMR {
				i := ic + ir
				mr := min(gemmMR, i1-i)
				as := aPack[(i/gemmMR)*gemmMR*kc:]
				if mr == gemmMR && nr == gemmNR {
					gemmMicro(dst[i*ldc+jt:], as, bs, kc, ldc)
					continue
				}
				// Boundary tile: run the same kernel on an NR-strided
				// scratch tile holding the valid C region (zero
				// elsewhere), then copy the valid region back. The
				// packed panels zero-fill past m and n, so the padded
				// lanes accumulate zeros and every real element sees
				// the identical fused-multiply-add chain it would see
				// in a full tile.
				clear(tile[:])
				for r := 0; r < mr; r++ {
					copy(tile[r*gemmNR:r*gemmNR+nr], dst[(i+r)*ldc+jt:(i+r)*ldc+jt+nr])
				}
				gemmMicro(tile[:], as, bs, kc, gemmNR)
				for r := 0; r < mr; r++ {
					copy(dst[(i+r)*ldc+jt:(i+r)*ldc+jt+nr], tile[r*gemmNR:r*gemmNR+nr])
				}
			}
		}
	}
}

// PackedBT32 is a transposed B operand (storage n x k, read as k x n)
// packed once for products that reuse it against many A: for each KC block
// in turn, all of its NR-column strips, each laid out as kGemmPacked packs
// it per call (columns past n zero-filled). The block at reduction index pc
// starts at data[nPad*pc], where nPad is n rounded up to NR, and columns
// [jc, jc+nc) of it, jc NR-aligned, are the panel gemmTiles reads at offset
// jc*kc. The KC depth is recorded at packing, so a product runs the blocks
// the operand was packed with.
type PackedBT32 struct {
	data     []float32
	n, k, kc int
}

// N returns the operand's logical columns (the storage's rows).
func (p *PackedBT32) N() int { return p.n }

// K returns the operand's reduction depth (the storage's columns).
func (p *PackedBT32) K() int { return p.k }

// PackBT32 packs b ([n x k], read as b^T) into p, reusing p's storage when
// it holds enough floats: packing a new operand into an old one recycles it
// in place. Packing only moves elements, so a product on p gives the bits
// MatMulBT32 gives on b.
func PackBT32(p *PackedBT32, b Tensor32) {
	n, k := b.R, b.C
	nPad := (n + gemmNR - 1) / gemmNR * gemmNR
	if cap(p.data) < nPad*k {
		p.data = make([]float32, nPad*k)
	}
	p.data = p.data[:nPad*k]
	p.n, p.k, p.kc = n, k, gemmKC
	for pc := 0; pc < k; pc += p.kc {
		kc := min(p.kc, k-pc)
		packBT(p.data[nPad*pc:nPad*(pc+kc)], b.Data[pc:], 0, n, kc, k)
	}
}

// gemmMicro dispatches one MR x NR tile to the assembly micro-kernel when
// the CPU supports it, and to the bitwise-identical portable kernel
// otherwise. c starts at the tile's top-left element (row stride ldc); a and
// b start at the tile's packed A and B strips.
func gemmMicro(c, a, b []float32, kc, ldc int) {
	if useFMA {
		gemmMicro6x16(&c[0], &a[0], &b[0], kc, ldc)
		return
	}
	gemmMicroGeneric(c, a, b, kc, ldc)
}

// packBN packs a normal (row-major k x n, pre-offset to the KC block) B:
// strip t holds columns [jc+t*NR, jc+t*NR+NR); columns past n are
// zero-filled. Source rows are copied contiguously.
func packBN(dst, b []float32, jc, nc, kc, ldb int) {
	ns := (nc + gemmNR - 1) / gemmNR
	for t := 0; t < ns; t++ {
		strip := dst[t*gemmNR*kc : (t+1)*gemmNR*kc]
		c0 := jc + t*gemmNR
		w := min(gemmNR, jc+nc-c0)
		for l := 0; l < kc; l++ {
			row := b[l*ldb+c0 : l*ldb+c0+w]
			out := strip[l*gemmNR : l*gemmNR+gemmNR]
			copy(out, row)
			for c := w; c < gemmNR; c++ {
				out[c] = 0
			}
		}
	}
}

// packBT packs a transposed B (storage n x k reads as logical k x n, the NT
// case; pre-offset to the KC block): element (l, j) comes from b[j*ldb+l],
// so each source row is a contiguous k-run feeding one packed column.
func packBT(dst, b []float32, jc, nc, kc, ldb int) {
	ns := (nc + gemmNR - 1) / gemmNR
	for t := 0; t < ns; t++ {
		strip := dst[t*gemmNR*kc : (t+1)*gemmNR*kc]
		c0 := jc + t*gemmNR
		w := min(gemmNR, jc+nc-c0)
		for c := 0; c < w; c++ {
			row := b[(c0+c)*ldb : (c0+c)*ldb+kc]
			for l, v := range row {
				strip[l*gemmNR+c] = v
			}
		}
		for c := w; c < gemmNR; c++ {
			for l := 0; l < kc; l++ {
				strip[l*gemmNR+c] = 0
			}
		}
	}
}
