// Package sim is the trace-driven cycle-level timing simulator — this
// repository's substitute for gem5. It replays a dynamic
// instruction trace under a uarch.Config and produces per-instruction retire
// times, from which PerfVec's training targets (incremental latencies, §III-B)
// are derived.
//
// Two pipeline models are provided. The out-of-order model is a dataflow
// simulator with a ROB window, per-pool functional-unit scheduling,
// dispatch/commit bandwidth limits, a branch predictor driving front-end
// redirects, and a two-level cache hierarchy over a bandwidth-limited DRAM
// channel. The in-order model shares the front end and memory system but
// issues strictly in program order.
package sim

import (
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// TickPerNs converts nanoseconds into the paper's 0.1 ns latency unit.
const TickPerNs = 10

// Stats aggregates event counts over one simulation.
type Stats struct {
	Instructions int64
	Cycles       int64
	Mem          MemStats
	Branches     int64
	Mispredicts  int64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// fuPool schedules a pool of identical functional units.
type fuPool struct {
	nextFree  []int64
	latency   int64
	pipelined bool
}

func newFUPool(f uarch.FU) *fuPool {
	return &fuPool{
		nextFree:  make([]int64, f.Count),
		latency:   int64(f.Latency),
		pipelined: f.Pipelined,
	}
}

// schedule finds the earliest start >= ready on any unit and books it.
func (p *fuPool) schedule(ready int64) (start int64) {
	best := 0
	for i := 1; i < len(p.nextFree); i++ {
		if p.nextFree[i] < p.nextFree[best] {
			best = i
		}
	}
	start = ready
	if p.nextFree[best] > start {
		start = p.nextFree[best]
	}
	if p.pipelined {
		p.nextFree[best] = start + 1
	} else {
		p.nextFree[best] = start + p.latency
	}
	return start
}

// ring is a fixed-size history of int64 times indexed by instruction number.
type ring struct {
	buf  []int64
	size int64
}

func newRing(n int) *ring {
	if n < 1 {
		n = 1
	}
	return &ring{buf: make([]int64, n), size: int64(n)}
}

func (r *ring) get(i int64) int64 {
	if i < 0 {
		return 0
	}
	return r.buf[i%r.size]
}

func (r *ring) set(i int64, v int64) { r.buf[i%r.size] = v }

// CPU simulates one hardware context. Feed one trace record at a time; each
// call returns that instruction's incremental latency in 0.1 ns ticks.
type CPU struct {
	cfg *uarch.Config
	mem *memHierarchy
	bp  *branchPredictor

	intALU, intMul, intDiv *fuPool
	fpALU, fpMul, fpDiv    *fuPool
	vecUnit, memPort       *fuPool

	regReady [256]int64

	// Front end.
	fetchCycle    int64
	fetchedInLine int
	lastFetchLine uint64
	redirect      int64

	// Windows and bandwidth rings.
	dispatchRing *ring // dispatch times, for issue-width throttling
	robRing      *ring // retire times, for ROB occupancy
	commitRing   *ring // retire times, for commit-width throttling

	// Memory ordering.
	storeComplete map[uint64]int64 // word address -> completion cycle
	lastMemDone   int64
	barrierReady  int64

	index      int64 // dynamic instruction counter
	lastRetire int64

	frontendDepth int64
	cycleNs       float64
	inOrder       bool
	lastStart     int64 // in-order: program-order issue constraint
}

// New creates a CPU simulator for the given configuration.
func New(cfg *uarch.Config) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &CPU{
		cfg:           cfg,
		mem:           newMemHierarchy(cfg),
		bp:            newBranchPredictor(cfg),
		intALU:        newFUPool(cfg.IntALU),
		intMul:        newFUPool(cfg.IntMul),
		intDiv:        newFUPool(cfg.IntDiv),
		fpALU:         newFUPool(cfg.FPALU),
		fpMul:         newFUPool(cfg.FPMul),
		fpDiv:         newFUPool(cfg.FPDiv),
		vecUnit:       newFUPool(cfg.VecUnit),
		memPort:       newFUPool(cfg.MemPort),
		dispatchRing:  newRing(cfg.IssueWidth),
		commitRing:    newRing(cfg.CommitWidth),
		storeComplete: make(map[uint64]int64),
		frontendDepth: int64(cfg.FrontendDepth),
		cycleNs:       cfg.CycleNs(),
		inOrder:       cfg.Core == uarch.InOrder,
		lastFetchLine: ^uint64(0),
	}
	rob := cfg.ROBSize
	if c.inOrder {
		rob = cfg.IssueWidth * 2 // tiny window: effectively the pipe depth
	}
	c.robRing = newRing(rob)
	return c
}

// poolFor maps an op class to its functional-unit pool.
func (c *CPU) poolFor(op isa.Op) *fuPool {
	switch op {
	case isa.IntMul:
		return c.intMul
	case isa.IntDiv:
		return c.intDiv
	case isa.FPALU:
		return c.fpALU
	case isa.FPMul:
		return c.fpMul
	case isa.FPDiv:
		return c.fpDiv
	case isa.VecALU, isa.VecMul:
		return c.vecUnit
	case isa.Load, isa.Store, isa.VecLoad, isa.VecStore:
		return c.memPort
	default:
		// IntALU, branches, barriers, nops execute on the integer ALUs.
		return c.intALU
	}
}

// Feed advances the pipeline by one dynamic instruction and returns its
// incremental latency in 0.1 ns ticks: the additional time the instruction
// keeps the processor busy after all its predecessors have retired (§III-B).
func (c *CPU) Feed(r *trace.Record) float64 {
	i := c.index
	c.index++

	// --- Fetch ---
	if c.redirect > c.fetchCycle {
		c.fetchCycle = c.redirect
		c.fetchedInLine = 0
		c.lastFetchLine = ^uint64(0)
	}
	line := r.PC >> c.mem.l1i.lineShift
	if line != c.lastFetchLine {
		lat := c.mem.accessInst(r.PC, c.fetchCycle)
		if lat > c.mem.l1i.latency {
			// I-cache miss stalls the front end for the extra cycles.
			c.fetchCycle += lat - c.mem.l1i.latency
		}
		c.lastFetchLine = line
		c.fetchedInLine = 0
	}
	fetchTime := c.fetchCycle
	c.fetchedInLine++
	if c.fetchedInLine >= c.cfg.FetchWidth {
		c.fetchCycle++
		c.fetchedInLine = 0
	}

	// --- Dispatch ---
	dispatch := fetchTime + c.frontendDepth
	// Issue/dispatch bandwidth: at most IssueWidth per cycle.
	if t := c.dispatchRing.get(i-int64(c.cfg.IssueWidth)) + 1; t > dispatch {
		dispatch = t
	}
	// ROB occupancy: the instruction ROBSize older must have retired.
	if t := c.robRing.get(i - c.robRing.size); t > dispatch {
		dispatch = t
	}
	c.dispatchRing.set(i, dispatch)

	// --- Register/memory dependences ---
	ready := dispatch
	for _, s := range r.Src[:r.NumSrc] {
		if t := c.regReady[s]; t > ready {
			ready = t
		}
	}
	if r.IsMem() {
		if c.barrierReady > ready {
			ready = c.barrierReady
		}
		if r.IsLoad() {
			if t, ok := c.storeComplete[r.Addr&^7]; ok && t > ready {
				ready = t // store-to-load dependence, word granularity
			}
		}
	}
	if c.inOrder && c.lastStart > ready {
		// In-order issue: program order is preserved at issue.
		ready = c.lastStart
	}

	// --- Execute ---
	pool := c.poolFor(r.Op)
	start := pool.schedule(ready)
	if c.inOrder {
		c.lastStart = start
	}

	var lat int64 = 1
	switch {
	case r.Op == isa.Load || r.Op == isa.VecLoad:
		lat = c.mem.accessData(r.PC, r.Addr, start)
	case r.Op == isa.Store || r.Op == isa.VecStore:
		// Stores retire through the store buffer; the cache is updated for
		// state (and DRAM bandwidth) but the latency is off the critical
		// path unless a later load aliases.
		memLat := c.mem.accessData(r.PC, r.Addr, start)
		c.storeComplete[r.Addr&^7] = start + memLat
		lat = 1
	case r.Op == isa.Barrier:
		if c.lastMemDone > start {
			lat = c.lastMemDone - start
		}
	default:
		lat = c.poolLatency(r.Op)
	}
	if r.Fault {
		// Faulting instructions trap to a handler; model a fixed cost.
		lat += 30
	}
	complete := start + lat
	if r.IsMem() && complete > c.lastMemDone {
		c.lastMemDone = complete
	}
	if r.Op == isa.Barrier {
		c.barrierReady = complete
	}

	for _, d := range r.Dst[:r.NumDst] {
		c.regReady[d] = complete
	}

	// --- Branch resolution ---
	if r.IsBranch() {
		correct := c.bp.predict(r)
		if !correct {
			// Redirect fetch once the branch resolves; the refilled
			// pipeline costs the front-end depth again via dispatch.
			c.redirect = complete + 1
		} else if r.Taken {
			// Correctly predicted taken branches still end the fetch line.
			c.lastFetchLine = ^uint64(0)
		}
	}

	// --- Retire ---
	retire := complete
	if retire < c.lastRetire {
		retire = c.lastRetire
	}
	if t := c.commitRing.get(i-int64(c.cfg.CommitWidth)) + 1; t > retire {
		retire = t
	}
	c.commitRing.set(i, retire)
	c.robRing.set(i, retire)

	inc := retire - c.lastRetire
	c.lastRetire = retire
	return float64(inc) * c.cycleNs * TickPerNs
}

// poolLatency returns the execution latency for non-memory ops.
func (c *CPU) poolLatency(op isa.Op) int64 {
	switch op {
	case isa.IntMul:
		return c.intMul.latency
	case isa.IntDiv:
		return c.intDiv.latency
	case isa.FPALU:
		return c.fpALU.latency
	case isa.FPMul:
		return c.fpMul.latency
	case isa.FPDiv:
		return c.fpDiv.latency
	case isa.VecALU, isa.VecMul:
		return c.vecUnit.latency
	default:
		return 1
	}
}

// TotalNs returns the execution time so far in nanoseconds.
func (c *CPU) TotalNs() float64 { return float64(c.lastRetire) * c.cycleNs }

// Stats returns the accumulated event counts.
func (c *CPU) Stats() Stats {
	return Stats{
		Instructions: c.index,
		Cycles:       c.lastRetire,
		Mem:          c.mem.stats,
		Branches:     c.bp.Branches,
		Mispredicts:  c.bp.Mispredicts,
	}
}

// Result is the outcome of simulating a whole trace.
type Result struct {
	// Incremental holds per-instruction incremental latencies in 0.1 ns
	// ticks when requested (nil otherwise).
	Incremental []float32
	TotalNs     float64
	Stats       Stats
}

// Simulate replays recs on a fresh CPU built from cfg. When captureInc is
// true the per-instruction incremental latencies are returned — these are
// the training targets for the foundation model.
func Simulate(cfg *uarch.Config, recs []trace.Record, captureInc bool) *Result {
	cpu := New(cfg)
	var inc []float32
	if captureInc {
		inc = make([]float32, 0, len(recs))
	}
	for idx := range recs {
		t := cpu.Feed(&recs[idx])
		if captureInc {
			inc = append(inc, float32(t))
		}
	}
	return &Result{Incremental: inc, TotalNs: cpu.TotalNs(), Stats: cpu.Stats()}
}
