package uarch

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Seeded design-space generation for fleet-scale DSE. Where Sampler draws a
// few dozen training microarchitectures, GenerateSpace builds candidate
// spaces of thousands of configurations for batched sweeps: a full grid over
// the primary cache/branch/width axes, replicated with stratified-random
// secondary knobs from a seeded PCG, with exact-duplicate configurations
// deduplicated. The same SpaceSpec always yields the same space, on any
// process — the property that lets a sweep service cache the embedded
// candidates by spec.

// Grid axes: the primary design dimensions every generated space covers
// exhaustively before any random replication. Their cross product with the
// predictor kinds defines GridCells.
var (
	// GridL1DKB are the L1 data cache sizes of the cache axis.
	GridL1DKB = []int{8, 16, 32, 64, 128}
	// GridL2KB are the L2 sizes of the cache axis.
	GridL2KB = []int{256, 512, 1024, 2048, 4096, 8192}
	// GridFetch are the fetch/issue/commit widths of the width axis.
	GridFetch = []int{2, 4, 6, 8}
)

// GridCells is the number of distinct grid points: every combination of L1D
// size, L2 size, fetch width, and branch predictor kind.
func GridCells() int {
	return len(GridL1DKB) * len(GridL2KB) * len(GridFetch) * NumPredictorKinds
}

// SpaceSpec identifies a generated design space. Equal specs generate equal
// spaces (bitwise, in order), so a spec is a complete cache key for anything
// derived from the space — candidate feature matrices included.
type SpaceSpec struct {
	// Size is the requested number of configurations. The result may be
	// smaller when deduplication exhausts the distinct configurations the
	// spec can express (GridOnly spaces cap at GridCells).
	Size int
	// Seed seeds the PCG driving the stratified-random secondary knobs.
	Seed uint64
	// GridOnly restricts generation to pure grid points: secondary knobs
	// stay at their base values, so replicas beyond the grid collide exactly
	// and are dropped by dedup. Mostly a test mode for the dedup contract.
	GridOnly bool
}

// GenerateSpace builds the design space spec describes: grid points first
// (round-robin over GridCells, so any prefix of the space is spread across
// the grid), then stratified-random replicas — the same grid cell with
// secondary knobs (frequency, depths, queue sizes, functional units, cache
// geometry details, DRAM) drawn from the seeded PCG. Exact duplicates (equal
// parameter vectors) are dropped. Every returned configuration is valid and
// the result is deterministic per spec.
func GenerateSpace(spec SpaceSpec) []*Config {
	if spec.Size < 1 {
		return nil
	}
	rng := rand.New(rand.NewPCG(spec.Seed, spec.Seed^0x9E3779B97F4A7C15))
	cells := GridCells()
	out := make([]*Config, 0, spec.Size)
	seen := make(map[[NumParams]uint32]bool, spec.Size)
	var key [NumParams]uint32
	params := make([]float32, NumParams)

	// Collision headroom: random replicas almost never collide, so the cap
	// only matters for GridOnly spaces, where it bounds the scan past the
	// grid's distinct-config supply.
	maxAttempts := 2*spec.Size + cells
	for i := 0; len(out) < spec.Size && i < maxAttempts; i++ {
		cell, replica := i%cells, i/cells
		c := gridPoint(cell)
		if replica > 0 && !spec.GridOnly {
			jitterSecondary(rng, c)
		}
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("uarch: generator produced invalid config: %v", err))
		}
		c.ParamsInto(params)
		for j, v := range params {
			key[j] = math.Float32bits(v)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		c.Name = fmt.Sprintf("gen%05d-%s", len(out), c.Name)
		out = append(out, c)
	}
	return out
}

// gridPoint decodes cell into its grid coordinates and returns the base
// out-of-order configuration at that point, secondary knobs at their fixed
// base values.
func gridPoint(cell int) *Config {
	l1 := GridL1DKB[cell%len(GridL1DKB)]
	cell /= len(GridL1DKB)
	l2 := GridL2KB[cell%len(GridL2KB)]
	cell /= len(GridL2KB)
	fw := GridFetch[cell%len(GridFetch)]
	cell /= len(GridFetch)
	pred := PredictorKind(cell)

	c := &Config{
		Core: OutOfOrder, FreqMHz: 2600,
		FetchWidth: fw, FrontendDepth: 8,
		Predictor: pred, PredTableBits: 12, BTBBits: 10, RASEntries: 8,
		IssueWidth: fw, CommitWidth: fw,
		ROBSize: 128, LQSize: 32, SQSize: 32,
		IntALU:  FU{Count: min(fw, 4), Latency: 1, Pipelined: true},
		IntMul:  FU{Count: 1, Latency: 3, Pipelined: true},
		IntDiv:  FU{Count: 1, Latency: 12},
		FPALU:   FU{Count: 1, Latency: 3, Pipelined: true},
		FPMul:   FU{Count: 1, Latency: 4, Pipelined: true},
		FPDiv:   FU{Count: 1, Latency: 14},
		VecUnit: FU{Count: 1, Latency: 4, Pipelined: true},
		MemPort: FU{Count: 2, Latency: 1, Pipelined: true},
		L1I:     Cache{SizeKB: 32, Assoc: 4, LineBytes: 64, Latency: 1},
		L1D:     Cache{SizeKB: l1, Assoc: 4, LineBytes: 64, Latency: 2},
		L2:      Cache{SizeKB: l2, Assoc: 8, LineBytes: 64, Latency: 14},
		DRAM:    DDR4, DRAMLatencyNs: 85, DRAMBandwidthGB: 25.6,
	}
	c.Name = fmt.Sprintf("fw%d-%s-l1d%dk-l2%dk", fw, pred, l1, l2)
	return c
}

// jitterSecondary randomizes the secondary knobs of a grid point in place,
// leaving the primary axes (L1D/L2 size, width, predictor) untouched so the
// replica stays in its stratum. All draws keep Validate satisfied.
func jitterSecondary(rng *rand.Rand, c *Config) {
	pickInt := func(vals ...int) int { return vals[rng.IntN(len(vals))] }
	between := func(lo, hi int) int { return lo + rng.IntN(hi-lo+1) }

	c.FreqMHz = pickInt(1400, 1800, 2200, 2600, 3000, 3400)
	c.FrontendDepth = between(5, 14)
	c.ROBSize = pickInt(64, 96, 128, 192, 256)
	c.LQSize = c.ROBSize / 4
	c.SQSize = c.ROBSize / 4
	c.PredTableBits = between(8, 14)
	c.BTBBits = between(8, 12)
	c.RASEntries = pickInt(4, 8, 16)

	c.IntALU.Count = min(pickInt(2, 3, 4), c.IssueWidth)
	c.IntMul = FU{Count: pickInt(1, 2), Latency: between(3, 5), Pipelined: true}
	c.IntDiv.Latency = between(8, 20)
	c.FPALU = FU{Count: pickInt(1, 2), Latency: between(2, 5), Pipelined: true}
	c.FPMul = FU{Count: pickInt(1, 2), Latency: between(3, 6), Pipelined: true}
	c.FPDiv.Latency = between(10, 24)
	c.VecUnit.Latency = between(3, 6)
	c.MemPort.Count = pickInt(1, 2, 3)

	c.L1I.SizeKB = pickInt(16, 32, 64)
	c.L1I.Latency = between(1, 2)
	c.L1D.Assoc = pickInt(2, 4, 8)
	c.L1D.Latency = between(1, 4)
	c.L2.Assoc = pickInt(4, 8, 16)
	c.L2.Latency = between(8, 24)
	c.L2Exclusive = rng.IntN(4) == 0
	c.Prefetcher = PrefetchKind(rng.IntN(NumPrefetchKinds))

	c.DRAM = DRAMKind(rng.IntN(NumDRAMKinds))
	switch c.DRAM {
	case DDR4:
		c.DRAMLatencyNs = float64(between(70, 95))
		c.DRAMBandwidthGB = float64(pickInt(13, 19, 26))
	case LPDDR5:
		c.DRAMLatencyNs = float64(between(60, 85))
		c.DRAMBandwidthGB = float64(pickInt(26, 34, 51))
	case GDDR5:
		c.DRAMLatencyNs = float64(between(80, 110))
		c.DRAMBandwidthGB = float64(pickInt(112, 160, 224))
	case HBM:
		c.DRAMLatencyNs = float64(between(90, 120))
		c.DRAMBandwidthGB = float64(pickInt(128, 256, 410))
	}
}
