package serve

import "fmt"

// Precision selects the numeric engine a Service's encode batches run on;
// see the "Precision policy" section of the package comment. The zero value
// is the float32 fast path, so existing Config literals keep their behavior.
type Precision int

const (
	// PrecisionF32 routes batches through the forward-only float32 engine
	// (perfvec.Encoder.EncodePrograms32): the production serving path —
	// packed f32 GEMM, pooled slabs, zero steady-state allocations — whose
	// output is bitwise identical to the training forward pass.
	PrecisionF32 Precision = iota
	// PrecisionF64 routes batches through the float64 oracle
	// (perfvec.Foundation.EncodePrograms64) and converts each
	// representation to float32 at the batch boundary, leaving the cache
	// layout unchanged. This is the audit mode the epsilon drift bound is
	// stated against; it allocates per batch and is not a hot path.
	PrecisionF64
	// PrecisionInt8 routes batches through the quantized integer engine
	// (perfvec.Encoder.EncodeProgramsQ8): u8xi8 dot-product GEMM over
	// weights quantized per output channel at first use, fast polynomial
	// gate transcendentals, float32 everywhere between. Representations are
	// stored and served as float32, so the cache layout is identical to the
	// other tiers. Output carries bounded quantization noise — the contract
	// is the int8 drift harness's pinned epsilon, not bit equality with the
	// f32 tier.
	PrecisionInt8
)

// String returns the flag spelling of p.
func (p Precision) String() string {
	switch p {
	case PrecisionF32:
		return "f32"
	case PrecisionF64:
		return "f64"
	case PrecisionInt8:
		return "int8"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses the -precision flag values "f32", "f64", and "int8".
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f32":
		return PrecisionF32, nil
	case "f64":
		return PrecisionF64, nil
	case "int8":
		return PrecisionInt8, nil
	}
	return 0, fmt.Errorf("serve: unknown precision %q (want f32, f64, or int8)", s)
}
