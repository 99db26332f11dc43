package tensor

// Typed op-record autodiff tape.
//
// Every differentiable op used to append a backward *closure* to the tape.
// Closures made the backward pass trivially extensible, but each one is a
// heap allocation (the func value plus the capture block), and at ~300 ops
// per training step they were the last per-step heap traffic left after the
// tensor arena landed. The tape now records a typed, fixed-size opRecord per
// op instead: an op-kind enum, the operand/output/saved-activation tensor
// refs, and the op's small scalar arguments. Records live in one growable
// slice on the Tape whose capacity Reset retains, so after the warm-up step
// recording allocates nothing, and Backward dispatches each record through
// the static per-kind VJP table below instead of invoking a captured func.
//
// The VJP bodies are the former closure bodies verbatim — same expressions,
// same accumulation order, same ParallelKernel chunking — so gradients are
// bitwise identical to the closure tape's (the gradcheck and fused-kernel
// bitwise tests pin this), and replaying Backward twice over the same
// records yields bit-identical gradients (records are read-only inputs to
// the VJPs; see records_test.go).
//
// Record lifetime follows the arena's tensor-lifetime invariant: a record
// references step-lifetime tensors, so records, like pooled tensors, must
// not outlive their tape's Reset. Reset clears the record slice (dropping
// the tensor refs) in the same breath as it recycles the arena.

// opKind identifies a differentiable op in a recorded opRecord. The order is
// arbitrary but fixed; vjpTable is indexed by it.
type opKind uint8

// Op kinds, one per differentiable op in the package.
const (
	opMatMul opKind = iota
	opMatMulBT
	opMatMulBTCat
	opMatMulBTCols
	opAdd
	opAddBias
	opSub
	opMul
	opScale
	opSigmoid
	opTanh
	opReLU
	opSoftmaxRows
	opAttentionSoftmax
	opConcatCols
	opSliceCols
	opSliceRows
	opTranspose
	opSum
	opLayerNorm
	opLSTMGates
	opGRUGates
	opGateCombine
	opAddBiasInPlace
	opSigmoidInPlace
	opTanhInPlace
	opReLUInPlace
	opStackRows
	opAttentionValue
	opKinds // count; must stay last
)

// opNames maps each op kind to its histogram label (see Tape.OpHistogram).
// Completeness is asserted by TestOpNamesComplete.
var opNames = [opKinds]string{
	opMatMul:           "MatMul",
	opMatMulBT:         "MatMulBT",
	opMatMulBTCat:      "MatMulBTCat",
	opMatMulBTCols:     "MatMulBTCols",
	opAdd:              "Add",
	opAddBias:          "AddBias",
	opSub:              "Sub",
	opMul:              "Mul",
	opScale:            "Scale",
	opSigmoid:          "Sigmoid",
	opTanh:             "Tanh",
	opReLU:             "ReLU",
	opSoftmaxRows:      "SoftmaxRows",
	opAttentionSoftmax: "AttentionSoftmax",
	opConcatCols:       "ConcatCols",
	opSliceCols:        "SliceCols",
	opSliceRows:        "SliceRows",
	opTranspose:        "Transpose",
	opSum:              "Sum",
	opLayerNorm:        "LayerNorm",
	opLSTMGates:        "LSTMGates",
	opGRUGates:         "GRUGates",
	opGateCombine:      "GateCombine",
	opAddBiasInPlace:   "AddBiasInPlace",
	opSigmoidInPlace:   "SigmoidInPlace",
	opTanhInPlace:      "TanhInPlace",
	opReLUInPlace:      "ReLUInPlace",
	opStackRows:        "StackRows",
	opAttentionValue:   "AttentionValue",
}

// opRecord is one recorded op: everything its VJP needs, in a fixed-size
// struct appended by value to the tape's record slice (no per-op heap
// allocation). Field meaning is per-kind; each vjp* function documents its
// layout. Dimensions are not stored — VJPs rederive them from the recorded
// tensors' shapes exactly as the forward pass did.
type opRecord struct {
	kind opKind
	i0   int     // first int arg (column/row from, StackRows row)
	i1   int     // second int arg (column/row to)
	f0   float32 // scalar arg (Scale factor, AttentionSoftmax scale)

	a, b, c, d *Tensor // operand tensors
	out, out2  *Tensor // output tensors (out2: second output of gate kernels)
	s1, s2     *Tensor // saved activations/scratch kept for the backward pass

	// ts holds the operands of variadic ops (StackRows). The
	// slice is the caller's; like every recorded tensor it must stay
	// unmutated until Backward and is released on Reset.
	ts []*Tensor
}

// vjp is one entry of the static dispatch table: it reads an opRecord and
// accumulates the op's vector-Jacobian product into the operands' gradients.
// VJPs allocate their scratch through the tape (arena-pooled on arena
// tapes), exactly as the backward closures did.
type vjp func(tp *Tape, r *opRecord)

// vjpTable maps each op kind to its VJP. Indexed dispatch replaces the
// closure call: Backward walks the records in reverse and calls
// vjpTable[r.kind](tp, r). Completeness (no nil entries) is asserted by
// TestVJPTableComplete.
var vjpTable = [opKinds]vjp{
	opMatMul:           vjpMatMul,
	opMatMulBT:         vjpMatMulBT,
	opMatMulBTCat:      vjpMatMulBTCat,
	opMatMulBTCols:     vjpMatMulBTCols,
	opAdd:              vjpAdd,
	opAddBias:          vjpAddBias,
	opSub:              vjpSub,
	opMul:              vjpMul,
	opScale:            vjpScale,
	opSigmoid:          vjpSigmoid,
	opTanh:             vjpTanh,
	opReLU:             vjpReLU,
	opSoftmaxRows:      vjpSoftmaxRows,
	opAttentionSoftmax: vjpAttentionSoftmax,
	opConcatCols:       vjpConcatCols,
	opSliceCols:        vjpSliceCols,
	opSliceRows:        vjpSliceRows,
	opTranspose:        vjpTranspose,
	opSum:              vjpSum,
	opLayerNorm:        vjpLayerNorm,
	opLSTMGates:        vjpLSTMGates,
	opGRUGates:         vjpGRUGates,
	opGateCombine:      vjpGateCombine,
	opAddBiasInPlace:   vjpAddBiasInPlace,
	opSigmoidInPlace:   vjpSigmoidInPlace,
	opTanhInPlace:      vjpTanhInPlace,
	opReLUInPlace:      vjpReLUInPlace,
	opStackRows:        vjpStackRows,
	opAttentionValue:   vjpAttentionValue,
}
