// Command perfvec-vet is the repo's static-analysis suite: a multichecker
// over the go/analysis-style passes in internal/analysis that enforce the
// performance invariants PRs 3-4 established dynamically — arena/tape tensor
// lifetime (arenalife), per-function zero-allocation hot paths (hotalloc) and
// closure-free typed kernel dispatch (kernelcapture).
//
// It loads packages via the go tool:
//
//	go run ./cmd/perfvec-vet ./...
//	go run ./cmd/perfvec-vet -tags noasm -summary ./internal/tensor/...
//
// Exit status: 0 no findings, 1 findings, 2 operational error.
package main

import (
	"repro/internal/analysis"
	"repro/internal/analysis/arenalife"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/kernelcapture"
)

func main() {
	analysis.Main(
		arenalife.Analyzer,
		hotalloc.Analyzer,
		kernelcapture.Analyzer,
	)
}
