package main

import (
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/bench"
	"repro/internal/uarch"
)

// Input generators. Every workload input comes from the run's seed through
// these functions, so the same seed gives the same inputs and the program
// under test receives only the generated inputs. Each workload draws from
// its own PCG stream.

const (
	streamPredict = 1 + iota
	streamCollect
	streamServe
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9E3779B97F4A7C15))
}

// predictPlan is the input of predict-unseen: the unseen programs in the
// order they are predicted, their instruction budget, and the design space
// the representations are swept over.
type predictPlan struct {
	Programs []string
	MaxInsts int
	Space    uarch.SpaceSpec
}

// predictInsts is every unseen program's instruction budget: perfvec-dse's
// -maxinsts default, the budget its targets are traced and encoded at. One
// budget for all programs keeps per-program work equal.
const predictInsts = 15000

func newPredictPlan(seed uint64) predictPlan {
	r := newRand(seed, streamPredict)
	var names []string
	for _, b := range bench.Testing() {
		names = append(names, b.Name)
	}
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return predictPlan{
		Programs: names,
		MaxInsts: predictInsts,
		Space:    uarch.SpaceSpec{Size: 4096, Seed: r.Uint64()},
	}
}

// collectPlan is the input of collect-train: each training program's
// instruction budget and the train/validation split seed. The
// microarchitectures are fixed (collectUarchs): they set the cost of
// simulation and the scale of the loss.
type collectPlan struct {
	MaxInsts  int
	SplitSeed int64
}

// collectInsts is perfvec-train's -maxinsts default; the seed moves each
// run's budget by at most half a percent around it.
const collectInsts = 20000

func newCollectPlan(seed uint64) collectPlan {
	r := newRand(seed, streamCollect)
	return collectPlan{MaxInsts: collectInsts - 100 + r.IntN(201), SplitSeed: r.Int64()}
}

// collectUarchs is perfvec-train's default training set (-seed 1 -uarchs 9):
// 9 sampled microarchitectures plus the 7 predefined ones, 16 in all.
func collectUarchs() []*uarch.Config { return uarch.TrainingSet(1, 9) }

// Request kinds of serve-mixed.
const (
	kindMiss    = iota // submit of a never-seen program: cache write, batched encode
	kindHit            // submit of a hot-set program: cache hit
	kindPredict        // GET /v1/predict on a hot key
	kindSweep          // POST /v1/sweep?key=&top= on the warm space
	numKinds
)

var kindNames = [numKinds]string{"miss", "hit", "predict", "sweep"}

// Open-loop offered rate per kind (requests per second). There is no
// recorded perfvec-serve traffic to copy, so the rates follow from what the
// metrics need:
//   - misses, 100/s: a 21 s open loop (30 s runs) holds 2100 misses, so the
//     miss p99 has the minBeyond samples above it that it needs;
//   - hits, 60/s: 0.6 per miss, a submit hit ratio of 0.375, so cache reads
//     and cache writes both carry weight;
//   - predicts 40/s and sweeps 20/s: at least 400 samples each for their
//     medians in a run;
//   - the total, 220/s, is about a sixth of the closed-loop capacity on the
//     reference 2-core box (1400 req/s at its fast speed level, 900 at its
//     slow one), so the latencies describe an unsaturated service.
var openRate = [numKinds]float64{kindMiss: 100, kindHit: 60, kindPredict: 40, kindSweep: 20}

// servePrograms are the programs of serve-mixed.
type servePrograms struct {
	// Bases are the feature matrices misses are derived from: a miss takes a
	// base and stamps a unique value into its first feature, so every miss
	// is a never-seen program of the base's size.
	Bases [][]float32
	// Hot is the hot set: programs submitted during set-up and then hit,
	// predicted and swept. It fits the service's cache many times over.
	Hot [][]float32
	// Space is the sweep spec every sweep request names.
	Space uarch.SpaceSpec
}

// Program sizes span an order of magnitude, tens to hundreds of rows,
// log-uniformly. The sizes are stratified rather than drawn, so every seed
// has the same size distribution and the seed varies only the contents and
// the order.
const minRows, maxRows = 16, 160

func newServePrograms(seed uint64, featDim int) servePrograms {
	r := newRand(seed, streamServe)
	progs := func(count int) [][]float32 {
		out := make([][]float32, count)
		for i, j := range r.Perm(count) {
			frac := (float64(j) + 0.5) / float64(count)
			n := int(math.Round(minRows * math.Pow(float64(maxRows)/minRows, frac)))
			fs := make([]float32, n*featDim)
			for k := range fs {
				fs[k] = float32(r.NormFloat64())
			}
			out[i] = fs
		}
		return out
	}
	return servePrograms{
		Space: uarch.SpaceSpec{Size: 4096, Seed: r.Uint64()},
		Bases: progs(64),
		Hot:   progs(48),
	}
}

// request is one scheduled request. Prog indexes Bases (miss) or Hot
// (others); Uarch is the predict target.
type request struct {
	Due   time.Duration
	Kind  int
	Prog  int
	Uarch int
}

// serveSchedule is the traffic of serve-mixed.
type serveSchedule struct {
	// Open is the open-loop schedule, due times from the phase start: exact
	// per-kind counts for the phase length at openRate, shuffled, on
	// Poisson arrivals at the summed rate.
	Open []request
	// Closed is the sequence closed-loop requests are drawn from, in order
	// (cycled), with the same kind mix.
	Closed []request
}

func newServeSchedule(seed uint64, open time.Duration, closedN, bases, hot, uarchs int) serveSchedule {
	r := newRand(seed, streamServe+16)
	// Programs are taken in seeded permutations, cycled, so every base
	// and every hot program is used equally often.
	missOrder, hotOrder := r.Perm(bases), r.Perm(hot)
	var nMiss, nHot int
	req := func(kind int) request {
		q := request{Kind: kind, Uarch: r.IntN(uarchs)}
		if kind == kindMiss {
			q.Prog = missOrder[nMiss%bases]
			nMiss++
		} else {
			q.Prog = hotOrder[nHot%hot]
			nHot++
		}
		return q
	}
	var total float64
	var kinds []int
	for k, v := range openRate {
		total += v
		for i := 0; i < int(math.Round(v*open.Seconds())); i++ {
			kinds = append(kinds, k)
		}
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var s serveSchedule
	var at float64
	for _, k := range kinds {
		at += r.ExpFloat64() / total
		q := req(k)
		q.Due = time.Duration(at * float64(time.Second))
		s.Open = append(s.Open, q)
	}
	for i := 0; i < closedN; i++ {
		s.Closed = append(s.Closed, req(kinds[r.IntN(len(kinds))]))
	}
	return s
}
