package perfvec

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/uarch"
)

// TestParamCountMatchesParams pins Config.paramCount, the figure LoadModel
// checks a header against before allocating, to the parameters the built
// model really holds.
func TestParamCountMatchesParams(t *testing.T) {
	for _, kind := range modelKinds {
		for _, dims := range [][3]int{{1, 2, 1}, {3, 6, 2}, {8, 32, 2}, {4, 10, 3}} {
			cfg := DefaultConfig()
			cfg.Model, cfg.Window, cfg.Hidden, cfg.Layers = kind, dims[0], dims[1], dims[2]
			cfg.RepDim = dims[1] + 1
			n := 0
			for _, p := range NewFoundationStruct(cfg).Params() {
				n += p.Len()
			}
			if got := cfg.paramCount(); got != float64(n) {
				t.Errorf("%s window %d hidden %d layers %d: paramCount %v, model holds %d",
					kind, cfg.Window, cfg.Hidden, cfg.Layers, got, n)
			}
		}
	}
}

// smallModel returns an untrained model of the given kind with a table
// over two sampled and the seven predefined microarchitectures.
func smallModel(kind ModelKind, hidden int) (*Foundation, *Table, []*uarch.Config) {
	cfg := DefaultConfig()
	cfg.Model, cfg.Hidden, cfg.RepDim, cfg.Seed = kind, hidden, hidden, 5
	uarchs := uarch.TrainingSet(5, 2)
	return NewFoundation(cfg), NewTable(len(uarchs), cfg.RepDim, 6), uarchs
}

func saveModelBytes(tb testing.TB, f *Foundation, table *Table, uarchs []*uarch.Config) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, f, table, uarchs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveLoadModelRoundTrip pins the artifact for every architecture: the
// loaded model has the saved Config and uarchs, and encodes bitwise like the
// model that was saved.
func TestSaveLoadModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := []*ProgramData{
		encTestProgram(rng, "a", 3, 51),
		encTestProgram(rng, "b", 300, 51),
		encTestProgram(rng, "c", 41, 51),
	}
	for _, kind := range modelKinds {
		t.Run(string(kind), func(t *testing.T) {
			f, table, uarchs := smallModel(kind, 16)
			g, gtable, guarchs, err := LoadModel(bytes.NewReader(saveModelBytes(t, f, table, uarchs)))
			if err != nil {
				t.Fatal(err)
			}
			if g.Cfg != f.Cfg {
				t.Fatalf("config %+v, saved %+v", g.Cfg, f.Cfg)
			}
			if !reflect.DeepEqual(guarchs, uarchs) {
				t.Fatal("loaded uarchs differ from the saved ones")
			}
			if !reflect.DeepEqual(gtable.M.Shape, table.M.Shape) || !reflect.DeepEqual(gtable.M.Data, table.M.Data) {
				t.Fatal("loaded table differs from the saved one")
			}
			want, got := reps32(f, ps), reps32(g, ps)
			for i := range want {
				for j, v := range want[i] {
					if got[i][j] != v {
						t.Fatalf("program %d rep[%d]: loaded %v != saved %v", i, j, got[i][j], v)
					}
				}
			}
		})
	}
}

func TestSaveModelRejectsUarchTableMismatch(t *testing.T) {
	f, table, uarchs := smallModel(ModelLSTM, 4)
	if err := SaveModel(&bytes.Buffer{}, f, table, uarchs[1:]); err == nil {
		t.Fatal("saved a model whose uarchs do not match its table rows")
	}
}

// forgeModel encodes mf as it stands, with whatever header it carries.
func forgeModel(tb testing.TB, mf modelFile) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&mf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// badModel is one malformed artifact and a fragment of the error it must
// produce.
type badModel struct {
	name string
	data []byte
	want string
}

// badModels derives every malformed-artifact case from one valid small
// model; FuzzLoadModel's seed corpus holds the same inputs.
func badModels(tb testing.TB) (valid []byte, bad []badModel) {
	cfg := DefaultConfig()
	cfg.Model, cfg.Window, cfg.Hidden, cfg.RepDim = ModelLinear, 1, 2, 2
	f, uarchs := NewFoundation(cfg), uarch.Predefined()[:2]
	valid = saveModelBytes(tb, f, NewTable(len(uarchs), cfg.RepDim, 6), uarchs)
	var mf modelFile
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&mf); err != nil {
		tb.Fatal(err)
	}
	edit := func(change func(*modelFile)) []byte {
		m := mf
		m.Params = bytes.Clone(mf.Params)
		m.Uarchs = append([]uarch.Config(nil), mf.Uarchs...)
		change(&m)
		return forgeModel(tb, m)
	}
	var old bytes.Buffer
	if err := nn.SaveParams(&old, f.Params()); err != nil {
		tb.Fatal(err)
	}
	bad = []badModel{
		{"empty", nil, "not a perfvec model"},
		{"truncated", valid[:len(valid)/2], "not a perfvec model"},
		{"old_bare_params", old.Bytes(), "not a perfvec model"},
		{"wrong_magic", edit(func(m *modelFile) { m.Magic = "perfvec-modem" }), "not a perfvec model"},
		{"version_bump", edit(func(m *modelFile) { m.Version++ }), "format version 2"},
		{"flipped_param_byte", edit(func(m *modelFile) { m.Params[len(m.Params)/2] ^= 0x10 }), "checksum"},
		{"hostile_hidden", edit(func(m *modelFile) { m.Config.Hidden, m.Config.RepDim = 1<<20, 1<<20 }), "needs"},
		{"hostile_window", edit(func(m *modelFile) { m.Config.Model, m.Config.Window = ModelLSTM, 1<<40 }), "window"},
		{"unknown_arch", edit(func(m *modelFile) { m.Config.Model = "nosuch" }), "unknown model kind"},
		{"nan_target_scale", edit(func(m *modelFile) { m.Config.TargetScale = float32(math.NaN()) }), "TargetScale"},
		{"foreign_features", edit(func(m *modelFile) { m.Config.FeatDim = 50 }), "features per instruction"},
		{"invalid_uarch", edit(func(m *modelFile) { m.Uarchs[1].FreqMHz = 0 }), "uarch 1"},
		{"huge_cache", edit(func(m *modelFile) { m.Uarchs[0].L2.SizeKB = 1 << 30 }), "L2 size 1073741824 KB exceeds"},
		{"no_uarchs", edit(func(m *modelFile) { m.Uarchs = nil }), "no microarchitectures"},
		{"uarchs_exceed_table", edit(func(m *modelFile) { m.Uarchs = append(m.Uarchs, m.Uarchs[0]) }), "3-uarch table"},
		{"dims_disagree", edit(func(m *modelFile) { m.Config.Hidden, m.Config.RepDim = 1, 4 }), "parameters"},
	}
	return valid, bad
}

func TestLoadModelRejectsMalformed(t *testing.T) {
	_, bad := badModels(t)
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, _, _, err := LoadModel(bytes.NewReader(c.data))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadModel error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// FuzzLoadModel drives the artifact reader with arbitrary bytes. It must
// never panic, and whatever it accepts must round-trip: saving the loaded
// model and loading that again reproduces the saved bytes. The seed corpus
// (testdata/fuzz/FuzzLoadModel) holds a valid small artifact and each case
// of badModels.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, table, uarchs, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		saved := saveModelBytes(t, m, table, uarchs)
		m, table, uarchs, err = LoadModel(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		if again := saveModelBytes(t, m, table, uarchs); !bytes.Equal(again, saved) {
			t.Fatal("a loaded model does not round-trip through SaveModel")
		}
	})
}

// programBytes encodes pd with SaveProgramData.
func programBytes(tb testing.TB, pd *ProgramData) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := SaveProgramData(&buf, pd); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// badPrograms derives every malformed program record from two valid ones,
// a simulated program (K=2) and a features-only one (K=0);
// FuzzLoadProgramData's seed corpus holds the same inputs.
func badPrograms(tb testing.TB) (valid [][]byte, bad []badModel) {
	const n, k, fd = 3, 2, features.NumFeatures
	sim := ProgramData{Name: "sim", N: n, FeatDim: fd, K: k,
		Features: make([]float32, n*fd), Targets: make([]float32, n*k), TotalNs: []float64{1.5, 2.5}}
	feats := ProgramData{Name: "feats", N: n, FeatDim: fd, Features: make([]float32, n*fd)}
	for i := range sim.Features {
		sim.Features[i] = float32(i) / 7
		feats.Features[i] = -float32(i) / 5
	}
	for i := range sim.Targets {
		sim.Targets[i] = float32(i + 1)
	}
	valid = [][]byte{programBytes(tb, &sim), programBytes(tb, &feats)}
	edit := func(from ProgramData, change func(*ProgramData)) []byte {
		change(&from)
		return programBytes(tb, &from)
	}
	bad = []badModel{
		{"empty", nil, "EOF"},
		{"truncated", valid[0][:len(valid[0])/2], "EOF"},
		{"negative_n", edit(feats, func(p *ProgramData) { p.N, p.FeatDim, p.Features = -1, 0, nil }), "N=-1"},
		{"no_features", edit(feats, func(p *ProgramData) { p.N, p.FeatDim, p.Features = 5, 0, nil }), "0 features per instruction"},
		{"negative_dims", edit(feats, func(p *ProgramData) { p.N, p.FeatDim, p.Features = -2, -3, make([]float32, 6) }), "N=-2"},
		{"negative_k", edit(feats, func(p *ProgramData) { p.K = -4 }), "K=-4"},
		{"foreign_features", edit(feats, func(p *ProgramData) { p.FeatDim = fd - 1 }), "features per instruction"},
		{"short_features", edit(feats, func(p *ProgramData) { p.Features = p.Features[:len(p.Features)-1] }), "features for N=3"},
		{"huge_n", edit(feats, func(p *ProgramData) { p.N = math.MaxInt / 2 }), "features for N="},
		{"short_targets", edit(sim, func(p *ProgramData) { p.Targets = p.Targets[:n*k-1] }), "targets for N=3 x K=2"},
		{"missing_total_ns", edit(sim, func(p *ProgramData) { p.TotalNs = p.TotalNs[:1] }), "1 TotalNs for K=2"},
		{"stray_targets", edit(feats, func(p *ProgramData) { p.Targets = make([]float32, n) }), "targets for N=3 x K=0"},
		{"stray_total_ns", edit(feats, func(p *ProgramData) { p.TotalNs = []float64{1} }), "1 TotalNs for K=0"},
	}
	return valid, bad
}

func TestLoadProgramDataRejectsMalformed(t *testing.T) {
	valid, bad := badPrograms(t)
	for i, data := range valid {
		if _, err := LoadProgramData(bytes.NewReader(data)); err != nil {
			t.Fatalf("valid record %d: %v", i, err)
		}
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadProgramData(bytes.NewReader(c.data))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadProgramData error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// FuzzLoadProgramData drives the program-data reader with arbitrary bytes.
// It must never panic, and whatever it accepts must round-trip: saving the
// loaded record and loading that again reproduces the saved bytes. The seed
// corpus (testdata/fuzz/FuzzLoadProgramData) holds the valid records and
// each case of badPrograms.
func FuzzLoadProgramData(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pd, err := LoadProgramData(bytes.NewReader(data))
		if err != nil {
			return
		}
		saved := programBytes(t, pd)
		pd, err = LoadProgramData(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("reloading a saved record: %v", err)
		}
		if again := programBytes(t, pd); !bytes.Equal(again, saved) {
			t.Fatal("a loaded record does not round-trip through SaveProgramData")
		}
	})
}
