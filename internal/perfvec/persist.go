package perfvec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// Model artifacts. A trained model is one self-describing file: the Config
// that rebuilds its encoder and head, the microarchitectures its table rows
// were trained on, and the parameters, checksummed. Readers take every
// dimension from the file, so a model can neither be rebuilt with the wrong
// shape nor evaluated against the wrong uarchs.

const (
	modelMagic   = "perfvec-model"
	modelVersion = 1
)

// modelFile is the gob wire form of a model artifact.
type modelFile struct {
	Magic   string
	Version int
	Config  Config
	Uarchs  []uarch.Config
	// Params is nn.SaveParams of the foundation's parameters followed by
	// the table; Checksum is its FNV-64a hash.
	Params   []byte
	Checksum uint64
}

// SaveModel writes f, its representation table and the microarchitectures
// the table's rows stand for (one per row, in row order) to w.
func SaveModel(w io.Writer, f *Foundation, table *Table, uarchs []*uarch.Config) error {
	if len(uarchs) != table.K() {
		return fmt.Errorf("perfvec: %d uarchs for a %d-row table", len(uarchs), table.K())
	}
	var params bytes.Buffer
	if err := nn.SaveParams(&params, append(f.Params(), table.M)); err != nil {
		return err
	}
	mf := modelFile{
		Magic: modelMagic, Version: modelVersion,
		Config:   f.Cfg,
		Uarchs:   make([]uarch.Config, len(uarchs)),
		Params:   params.Bytes(),
		Checksum: checksum(params.Bytes()),
	}
	for i, u := range uarchs {
		mf.Uarchs[i] = *u
	}
	return gob.NewEncoder(w).Encode(&mf)
}

// LoadModel reads a model written by SaveModel, returning the foundation,
// its table and the table's microarchitectures. Every malformed input —
// a foreign or truncated file, another format version, corrupt parameters,
// an invalid config or uarch, or dims that disagree with the parameters —
// is an error naming the cause.
func LoadModel(r io.Reader) (*Foundation, *Table, []*uarch.Config, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, nil, nil, fmt.Errorf("perfvec: not a perfvec model file: %w", err)
	}
	if mf.Magic != modelMagic {
		return nil, nil, nil, fmt.Errorf("perfvec: not a perfvec model file (magic %q)", mf.Magic)
	}
	if mf.Version != modelVersion {
		return nil, nil, nil, fmt.Errorf("perfvec: model format version %d, this build reads %d", mf.Version, modelVersion)
	}
	if checksum(mf.Params) != mf.Checksum {
		return nil, nil, nil, fmt.Errorf("perfvec: model parameters fail their checksum (corrupt file)")
	}
	cfg := mf.Config
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if cfg.FeatDim != features.NumFeatures {
		return nil, nil, nil, fmt.Errorf("perfvec: model reads %d features per instruction, the featurizer writes %d", cfg.FeatDim, features.NumFeatures)
	}
	if len(mf.Uarchs) == 0 {
		return nil, nil, nil, fmt.Errorf("perfvec: model has no microarchitectures")
	}
	uarchs := make([]*uarch.Config, len(mf.Uarchs))
	for i := range mf.Uarchs {
		if err := mf.Uarchs[i].Validate(); err != nil {
			return nil, nil, nil, fmt.Errorf("perfvec: model uarch %d: %w", i, err)
		}
		uarchs[i] = &mf.Uarchs[i]
	}
	// gob spends at least one byte per float32, so a config needing more
	// parameters than the payload has bytes cannot be what the payload
	// carries: reject it before allocating the model it describes. The
	// window sizes no parameter of the recurrent encoders; bounding it by
	// the payload too keeps the transformer's positional table and the
	// encode windows in scale.
	have := len(mf.Params)
	if need := cfg.paramCount() + float64(len(uarchs))*float64(cfg.RepDim); need > float64(have) {
		return nil, nil, nil, fmt.Errorf("perfvec: model config %s-%d-%d with %d uarchs needs %.0f parameters, payload has %d bytes",
			cfg.Model, cfg.Layers, cfg.Hidden, len(uarchs), need, have)
	}
	if cfg.Window > have {
		return nil, nil, nil, fmt.Errorf("perfvec: model window %d exceeds the payload's %d bytes", cfg.Window, have)
	}
	f := NewFoundationStruct(cfg)
	table := &Table{M: tensor.New(len(uarchs), cfg.RepDim)}
	if err := nn.LoadParams(bytes.NewReader(mf.Params), append(f.Params(), table.M)); err != nil {
		return nil, nil, nil, fmt.Errorf("perfvec: model parameters (encoder and head, then a %d-uarch table): %w", len(uarchs), err)
	}
	return f, table, uarchs, nil
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
