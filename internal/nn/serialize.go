package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"repro/internal/tensor"
)

// savedTensor is the gob wire form of one parameter tensor.
type savedTensor struct {
	Shape []int
	Data  []float32
}

// SaveParams serializes params (in order) to w with encoding/gob. Models
// expose deterministic Params() orderings, so save/load pairs line up.
func SaveParams(w io.Writer, params []*tensor.Tensor) error {
	out := make([]savedTensor, len(params))
	for i, p := range params {
		out[i] = savedTensor{Shape: p.Shape, Data: p.Data}
	}
	return gob.NewEncoder(w).Encode(out)
}

// LoadParams reads tensors written by SaveParams into params, verifying that
// shapes match.
func LoadParams(r io.Reader, params []*tensor.Tensor) error {
	var in []savedTensor
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return err
	}
	if len(in) != len(params) {
		return fmt.Errorf("nn: parameter count mismatch: saved %d, model has %d", len(in), len(params))
	}
	for i, st := range in {
		if !slices.Equal(st.Shape, params[i].Shape) || len(st.Data) != params[i].Len() {
			return fmt.Errorf("nn: parameter %d mismatch: saved shape %v (%d values), model has %v",
				i, st.Shape, len(st.Data), params[i].Shape)
		}
		copy(params[i].Data, st.Data)
	}
	return nil
}
