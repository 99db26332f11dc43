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
	out := tp.alloc(len(xs), n)
	for t, x := range xs {
		if x.Cols() != n {
			panic(fmt.Sprintf("tensor: StackRows column mismatch %d vs %d", x.Cols(), n))
		}
		copy(out.Data[t*n:(t+1)*n], x.Row(row))
	}
	tp.record(opRecord{kind: opStackRows, out: out, ts: xs, i0: row})
	return out
}

// vjpStackRows: out, ts=xs, i0=row.
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
