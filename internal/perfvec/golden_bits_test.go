package perfvec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/nn"
)

// goldenBitsFile holds TestGoldenBits' recorded hashes.
const goldenBitsFile = "testdata/golden_bits.json"

// bitsHash is the FNV-1a hash of the little-endian bit patterns of f32's
// rows, then f64's.
func bitsHash(f32 [][]float32, f64 [][]float64) string {
	w := fnv.New64a()
	for _, row := range f32 {
		binary.Write(w, binary.LittleEndian, row)
	}
	for _, row := range f64 {
		binary.Write(w, binary.LittleEndian, row)
	}
	return fmt.Sprintf("%016x", w.Sum64())
}

// goldenBitsConfigs are the pinned models: every architecture at the
// default width, and the recurrent cells at an odd width whose last lanes
// fall outside any whole vector.
func goldenBitsConfigs() map[string]Config {
	out := map[string]Config{}
	for _, kind := range modelKinds {
		cfg := DefaultConfig()
		cfg.Model = kind
		out[string(kind)] = cfg
	}
	for _, kind := range []ModelKind{ModelLSTM, ModelGRU} {
		cfg := DefaultConfig()
		cfg.Model = kind
		cfg.Hidden, cfg.RepDim = 13, 13
		out[string(kind)+"-h13"] = cfg
	}
	return out
}

// goldenBitsPrograms are seeded programs of 1 to 513 rows. The last one's
// features are scaled up so gate inputs reach the saturated tails.
func goldenBitsPrograms(featDim int) []*ProgramData {
	rng := rand.New(rand.NewSource(24))
	var ps []*ProgramData
	for i, n := range []int{1, 7, 256, 257, 513} {
		p := encTestProgram(rng, fmt.Sprint("g", i), n, featDim)
		if n == 513 {
			for j := range p.Features {
				p.Features[j] *= 16
			}
		}
		ps = append(ps, p)
	}
	return ps
}

// goldenBitsValues hashes, per pinned model, the three encode tiers'
// representations of the seeded programs and the parameters after three
// seeded training steps. A "probe" entry hashes math.Exp itself over
// seeded inputs, so a host whose math.Exp takes another code path can be
// told apart from a change in this repository.
func goldenBitsValues() map[string]string {
	out := map[string]string{}
	rng := rand.New(rand.NewSource(25))
	probe := make([]float64, 512)
	for i := range probe {
		probe[i] = math.Exp(rng.Float64()*80 - 40)
	}
	out["probe"] = bitsHash(nil, [][]float64{probe})
	for name, cfg := range goldenBitsConfigs() {
		f := NewFoundation(cfg)
		ps := goldenBitsPrograms(cfg.FeatDim)
		d32 := make([][]float32, len(ps))
		dq8 := make([][]float32, len(ps))
		d64 := make([][]float64, len(ps))
		for i := range ps {
			d32[i] = make([]float32, cfg.RepDim)
			dq8[i] = make([]float32, cfg.RepDim)
			d64[i] = make([]float64, cfg.RepDim)
		}
		e := f.AcquireEncoder()
		e.EncodePrograms32(ps, d32)
		e.EncodeProgramsQ8(ps, dq8)
		f.ReleaseEncoder(e)
		f.EncodePrograms64(ps, d64)
		out[name+"/f32"] = bitsHash(d32, nil)
		out[name+"/q8"] = bitsHash(dq8, nil)
		out[name+"/f64"] = bitsHash(nil, d64)

		const k = 4
		trng := rand.New(rand.NewSource(26))
		for _, p := range ps {
			p.K = k
			p.Targets = make([]float32, p.N*k)
			for i := range p.Targets {
				p.Targets[i] = trng.Float32() * 50
			}
		}
		d, err := NewDataset(ps, 0.1, 27)
		if err != nil {
			panic(err)
		}
		tr := NewTrainer(f, k)
		opt := nn.NewAdam(cfg.LR)
		for s := 0; s < 3; s++ {
			tr.Step(d, d.train[s*cfg.BatchSize:(s+1)*cfg.BatchSize], opt)
		}
		tr.Close()
		var params [][]float32
		for _, p := range tr.params() {
			params = append(params, p.Data)
		}
		out[name+"/train"] = bitsHash(params, nil)
	}
	return out
}

// TestGoldenBits pins the exact bits of every tier's encoding and of
// training, for every architecture, to hashes recorded before the gate
// kernels' vector twins existed: the f32 tier, the int8 tier, the float64
// oracle and the parameters after seeded Trainer.Steps must all reproduce
// them, under the default and the noasm build and at any GOMAXPROCS.
//
// The recorded bits come from math.Exp's FMA code path, the one amd64 CPUs
// with FMA take. On another host the "probe" hash differs and the test
// skips. A deliberate change of numerics must re-record the file; on
// failure the test logs the current values in the file's format.
func TestGoldenBits(t *testing.T) {
	data, err := os.ReadFile(goldenBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenBitsValues()
	if got["probe"] != want["probe"] {
		t.Skipf("math.Exp hashes %s here, %s where %s was recorded: another code path, so other bits", got["probe"], want["probe"], goldenBitsFile)
	}
	if len(got) != len(want) {
		t.Errorf("%d hashes, %s records %d", len(got), goldenBitsFile, len(want))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not recorded in %s", name, goldenBitsFile)
		} else if g != w {
			t.Errorf("%s: hash %s, recorded %s", name, g, w)
		}
	}
	if t.Failed() {
		cur, _ := json.MarshalIndent(got, "", " ")
		t.Logf("current values:\n%s", cur)
	}
}
