package tensor

import "fmt"

// StackRows gathers row `row` from each matrix in xs and stacks them into a
// [len(xs), cols] tensor. Gradients scatter back into the source rows. This
// is how sequence models reorganize per-timestep batches ([T] x [B,F]) into
// per-sample sequences ([T,F]) for attention. The xs slice itself is kept in
// the op record, so it must not be mutated before Backward (sequence models
// pass tape-pooled slices from Tape.Tensors, which share the step lifetime).
func StackRows(tp *Tape, xs []*Tensor, row int) *Tensor {
	if len(xs) == 0 {
		panic("tensor: StackRows needs at least one tensor")
	}
	n := xs[0].Cols()
	for _, x := range xs {
		if x.Cols() != n {
			panic(fmt.Sprintf("tensor: StackRows column mismatch %d vs %d", x.Cols(), n))
		}
	}
	out := tp.alloc(len(xs), n)
	stackRows(out.Data, xs, row)
	tp.record(opRecord{kind: opStackRows, out: out, ts: xs, i0: row})
	return out
}

// vjpStackRows: out, ts=xs, i0=row.
//
//perfvec:hotpath
func vjpStackRows(_ *Tape, r *opRecord) {
	g := r.out.Grad
	if g == nil {
		return
	}
	n := r.out.Cols()
	row := r.i0
	for t, x := range r.ts {
		gx := x.ensureGrad()
		gr := g[t*n : (t+1)*n]
		dst := gx[row*n : (row+1)*n]
		for j, gv := range gr {
			dst[j] += gv
		}
	}
}

// The row copies below are shared by every tensor form: the tape's *Tensor,
// the slab's Tensor32 and the oracle's Tensor64.

// rowMatrix is a row-major matrix of F that hands out its rows.
type rowMatrix[F float] interface{ Row(i int) []F }

// stackRows copies row `row` of each xs[t] into row t of out.
//
//perfvec:hotpath
func stackRows[F float, M rowMatrix[F]](out []F, xs []M, row int) {
	for t, x := range xs {
		r := x.Row(row)
		copy(out[t*len(r):(t+1)*len(r)], r)
	}
}

// concatCols writes [a|b] into out, where a has m rows of na columns and b
// m rows of nb.
//
//perfvec:hotpath
func concatCols[F float](out, a, b []F, m, na, nb int) {
	w := na + nb
	for i := 0; i < m; i++ {
		copy(out[i*w:i*w+na], a[i*na:(i+1)*na])
		copy(out[i*w+na:(i+1)*w], b[i*nb:(i+1)*nb])
	}
}

// gatherRows fills the len(start) rows of out (each len(out)/len(start)
// wide): row b holds the contiguous elements of src (c columns per row)
// that begin at row start[b]+off.
//
//perfvec:hotpath
func gatherRows[F float](out, src []F, c int, start []int32, off int) {
	if len(start) == 0 {
		return
	}
	w := len(out) / len(start)
	for b, r := range start {
		i := (int(r) + off) * c
		copy(out[b*w:(b+1)*w], src[i:i+w])
	}
}
