// Package uarch describes microarchitecture configurations: the knobs the
// paper samples with its gem5 configuration tool (§IV-C). A Config fully
// determines the behaviour of the timing simulator in internal/sim, and its
// normalized parameter vector is the input to the microarchitecture
// representation model used for design space exploration (§VI-A).
package uarch

import (
	"fmt"
	"math"
)

// CoreKind selects the pipeline model.
type CoreKind uint8

// Core kinds.
const (
	InOrder CoreKind = iota
	OutOfOrder
)

func (k CoreKind) String() string {
	if k == InOrder {
		return "inorder"
	}
	return "ooo"
}

// PredictorKind selects the branch predictor.
type PredictorKind uint8

// Branch predictor kinds.
const (
	PredStatic PredictorKind = iota // backward-taken / forward-not-taken
	PredBimodal
	PredGShare
	PredTournament
	NumPredictorKinds int = iota
)

func (p PredictorKind) String() string {
	switch p {
	case PredStatic:
		return "static"
	case PredBimodal:
		return "bimodal"
	case PredGShare:
		return "gshare"
	default:
		return "tournament"
	}
}

// PrefetchKind selects the L1D hardware prefetcher.
type PrefetchKind uint8

// Prefetcher kinds.
const (
	PrefetchNone PrefetchKind = iota
	PrefetchNextLine
	PrefetchStride
	NumPrefetchKinds int = iota
)

func (p PrefetchKind) String() string {
	switch p {
	case PrefetchNone:
		return "nopf"
	case PrefetchNextLine:
		return "nextline"
	default:
		return "stride"
	}
}

// DRAMKind selects the memory technology, which fixes the latency/bandwidth
// envelope the sampler draws from.
type DRAMKind uint8

// DRAM technologies.
const (
	DDR4 DRAMKind = iota
	LPDDR5
	GDDR5
	HBM
	NumDRAMKinds int = iota
)

func (d DRAMKind) String() string {
	switch d {
	case DDR4:
		return "DDR4"
	case LPDDR5:
		return "LPDDR5"
	case GDDR5:
		return "GDDR5"
	default:
		return "HBM"
	}
}

// FU describes one functional-unit pool.
type FU struct {
	Count     int  // number of units
	Latency   int  // cycles from issue to completion
	Pipelined bool // can accept a new op every cycle when true
}

// Cache describes one cache level.
type Cache struct {
	SizeKB    int
	Assoc     int
	LineBytes int
	Latency   int // hit latency in cycles
}

// Sets returns the number of sets implied by the geometry.
func (c Cache) Sets() int {
	lines := c.SizeKB * 1024 / c.LineBytes
	return lines / c.Assoc
}

// Config is a complete microarchitecture description (~40 scalar knobs).
type Config struct {
	Name string
	Core CoreKind

	FreqMHz int

	// Front end.
	FetchWidth    int
	FrontendDepth int // pipeline stages between fetch and dispatch
	Predictor     PredictorKind
	PredTableBits int // log2 entries of the predictor tables
	BTBBits       int // log2 entries of the branch target buffer
	RASEntries    int // return address stack depth

	// Out-of-order window (ignored by in-order cores).
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	LQSize      int
	SQSize      int

	// Execution units.
	IntALU  FU
	IntMul  FU
	IntDiv  FU
	FPALU   FU
	FPMul   FU
	FPDiv   FU
	VecUnit FU
	MemPort FU // load/store ports; latency unused (cache provides it)

	// Memory hierarchy.
	L1I         Cache
	L1D         Cache
	L2          Cache
	L2Exclusive bool
	Prefetcher  PrefetchKind

	DRAM            DRAMKind
	DRAMLatencyNs   float64
	DRAMBandwidthGB float64
}

// Validate checks structural invariants the simulator relies on. It also
// bounds every size the simulator allocates from — cache sets, functional
// unit pools, the return address stack and the ROB/LQ/SQ rings — so a
// config read from a file cannot ask it for gigabytes. The bounds sit well
// above the sampler's, GenerateSpace's and the predefined configs' ranges.
func (c *Config) Validate() error {
	// Checks run in order and only the first failure is formatted, so a
	// valid config (GenerateSpace validates thousands) costs no allocation.
	bad := func(format string, args ...any) error {
		return fmt.Errorf("uarch %q: "+format, append([]any{c.Name}, args...)...)
	}
	switch {
	case c.FreqMHz < 200 || c.FreqMHz > 6000:
		return bad("frequency %d MHz out of range", c.FreqMHz)
	case c.FetchWidth < 1 || c.FetchWidth > 16:
		return bad("fetch width %d out of range", c.FetchWidth)
	case c.FrontendDepth < 1 || c.FrontendDepth > 24:
		return bad("frontend depth %d out of range", c.FrontendDepth)
	case c.IssueWidth < 1 || c.IssueWidth > 16:
		return bad("issue width %d out of range", c.IssueWidth)
	case c.CommitWidth < 1 || c.CommitWidth > 16:
		return bad("commit width %d out of range", c.CommitWidth)
	case c.Core != InOrder && c.ROBSize < 8:
		return bad("ROB size %d too small for OoO", c.ROBSize)
	case c.ROBSize > 1024:
		return bad("ROB size %d exceeds 1024", c.ROBSize)
	case c.LQSize < 0 || c.LQSize > 1024:
		return bad("LQ size %d out of range", c.LQSize)
	case c.SQSize < 0 || c.SQSize > 1024:
		return bad("SQ size %d out of range", c.SQSize)
	case c.RASEntries < 0 || c.RASEntries > 64:
		return bad("RAS entries %d out of range", c.RASEntries)
	case c.PredTableBits < 4 || c.PredTableBits > 20:
		return bad("predictor table bits %d out of range", c.PredTableBits)
	case c.BTBBits < 4 || c.BTBBits > 16:
		return bad("BTB bits %d out of range", c.BTBBits)
	case !(c.DRAMLatencyNs > 0 && c.DRAMBandwidthGB > 0):
		return bad("DRAM parameters must be positive")
	}
	for _, cache := range []struct {
		name  string
		c     Cache
		maxKB int
	}{{"L1I", c.L1I, 1024}, {"L1D", c.L1D, 1024}, {"L2", c.L2, 32768}} {
		k := cache.c
		switch {
		case k.SizeKB <= 0:
			return bad("%s size must be positive", cache.name)
		case k.SizeKB > cache.maxKB:
			return bad("%s size %d KB exceeds %d KB", cache.name, k.SizeKB, cache.maxKB)
		case k.Assoc <= 0:
			return bad("%s associativity must be positive", cache.name)
		case k.LineBytes < 16 || k.LineBytes&(k.LineBytes-1) != 0:
			return bad("%s line size %d must be a power of two >= 16", cache.name, k.LineBytes)
		case k.Sets() < 1:
			return bad("%s geometry yields zero sets", cache.name)
		case k.Latency < 1:
			return bad("%s latency must be >= 1 cycle", cache.name)
		}
	}
	for _, fu := range []struct {
		name string
		f    FU
	}{{"IntALU", c.IntALU}, {"IntMul", c.IntMul}, {"IntDiv", c.IntDiv},
		{"FPALU", c.FPALU}, {"FPMul", c.FPMul}, {"FPDiv", c.FPDiv},
		{"VecUnit", c.VecUnit}, {"MemPort", c.MemPort}} {
		switch {
		case fu.f.Count < 1:
			return bad("%s needs at least one unit", fu.name)
		case fu.f.Count > 16:
			return bad("%s count %d exceeds 16", fu.name, fu.f.Count)
		case fu.f.Latency < 1:
			return bad("%s latency must be >= 1", fu.name)
		}
	}
	return nil
}

// CycleNs returns the duration of one clock cycle in nanoseconds.
func (c *Config) CycleNs() float64 { return 1000.0 / float64(c.FreqMHz) }

// NumParams is the length of the normalized parameter vector.
const NumParams = 41

// Params flattens the configuration into a normalized float32 vector, the
// input form consumed by the microarchitecture representation model. Sizes
// and counts are log2-scaled so that doubling a resource moves the feature
// by a constant step.
func (c *Config) Params() []float32 {
	p := make([]float32, NumParams)
	c.ParamsInto(p)
	return p
}

// ParamsInto fills dst (length NumParams) with the parameter vector of
// Params without allocating — the fill primitive design-space sweeps pack
// candidate feature matrices with. The element order is the Params contract;
// index comments below are the layout documentation.
//
//perfvec:hotpath
func (c *Config) ParamsInto(dst []float32) {
	if len(dst) != NumParams {
		panic("uarch: ParamsInto dst length mismatch")
	}
	dst[0] = float32(c.Core)
	dst[1] = float32(c.Predictor)
	dst[2] = float32(c.DRAM)
	dst[3] = log2f(float64(c.FreqMHz))
	dst[4] = float32(c.FetchWidth)
	dst[5] = float32(c.FrontendDepth)
	dst[6] = float32(c.IssueWidth)
	dst[7] = float32(c.CommitWidth)
	dst[8] = log2f(float64(max(c.ROBSize, 1)))
	dst[9] = log2f(float64(max(c.LQSize, 1)))
	dst[10] = log2f(float64(max(c.SQSize, 1)))
	dst[11] = float32(c.PredTableBits)
	dst[12] = float32(c.BTBBits)
	dst[13] = float32(c.RASEntries)
	dst[14], dst[15] = float32(c.IntALU.Count), float32(c.IntALU.Latency)
	dst[16], dst[17] = float32(c.IntMul.Count), float32(c.IntMul.Latency)
	dst[18], dst[19] = float32(c.IntDiv.Count), float32(c.IntDiv.Latency)
	dst[20], dst[21] = float32(c.FPALU.Count), float32(c.FPALU.Latency)
	dst[22], dst[23] = float32(c.FPMul.Count), float32(c.FPMul.Latency)
	dst[24], dst[25] = float32(c.FPDiv.Count), float32(c.FPDiv.Latency)
	dst[26], dst[27] = float32(c.VecUnit.Count), float32(c.MemPort.Count)
	dst[28], dst[29], dst[30] = log2f(float64(c.L1I.SizeKB)), float32(c.L1I.Assoc), float32(c.L1I.Latency)
	dst[31], dst[32], dst[33] = log2f(float64(c.L1D.SizeKB)), float32(c.L1D.Assoc), float32(c.L1D.Latency)
	dst[34], dst[35], dst[36] = log2f(float64(c.L2.SizeKB)), float32(c.L2.Assoc), float32(c.L2.Latency)
	dst[37] = boolToF(c.L2Exclusive)
	dst[38] = float32(c.Prefetcher)
	dst[39] = log2f(c.DRAMLatencyNs)
	dst[40] = log2f(c.DRAMBandwidthGB)
}

// Features fills the caller-provided packed row matrix dst — len(cfgs) rows
// of NumParams contiguous float32s, row-major — with the parameter vectors
// of cfgs. This is the allocation-free path batched sweeps build candidate
// matrices through; row i is exactly cfgs[i].Params().
//
//perfvec:hotpath
func Features(cfgs []*Config, dst []float32) {
	if len(dst) != len(cfgs)*NumParams {
		panic("uarch: Features dst length mismatch")
	}
	for i, c := range cfgs {
		c.ParamsInto(dst[i*NumParams : (i+1)*NumParams])
	}
}

func log2f(v float64) float32 { return float32(math.Log2(v)) }

func boolToF(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
