package perfvec

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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
