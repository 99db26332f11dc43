//go:build !race

package dse

// raceEnabled mirrors the race detector's build state: the detector's
// instrumentation performs heap allocations of its own, so AllocsPerRun
// assertions only hold on uninstrumented builds.
const raceEnabled = false
