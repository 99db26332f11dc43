// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, built only on the standard
// library's go/ast, go/types, and go/importer.
//
// The repo's performance invariants — arena/tape tensor lifetime (PR 3),
// closure-free typed kernels (PR 4), and the zero-allocation training hot
// path — were until now enforced only by after-the-fact regression tests.
// The analyzers in the subpackages (arenalife, hotalloc, kernelcapture)
// enforce them at vet time
// instead; cmd/perfvec-vet is the multichecker binary that runs them,
// loading packages itself via `go list -export`.
//
// The x/tools module is deliberately not imported: the toolchain in this
// environment carries no third-party modules, and the subset of the
// go/analysis API the suite needs — Analyzer, Pass, Diagnostic, an AST
// inspector, and a package loader — is small. The shapes mirror x/tools so
// the suite can be ported to the real framework by swapping imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// multichecker's usage text.
	Name string
	// Doc is the analyzer's one-paragraph documentation: first line is the
	// summary shown by `perfvec-vet -h`.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos token.Pos
	// Category is a short slug (e.g. "closure", "make") used by
	// //perfvec:allow suppression comments; empty means the analyzer name.
	Category string
	Message  string
}

// A Pass provides one analyzer run with one type-checked package and a sink
// for its diagnostics.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report collects diagnostics; set by the driver.
	report func(Diagnostic)

	// commentMaps caches the per-file comment maps used by directive lookup.
	commentMaps map[*ast.File]ast.CommentMap
}

// Report records a diagnostic finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a diagnostic at pos under the given suppression category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the package in depth-first order, calling fn
// for each node; fn returning false prunes the subtree (ast.Inspect
// semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Directive prefix shared by all perfvec annotations. Like go:build
// directives, they are machine-readable comments: no space after the slashes.
const (
	directivePrefix = "//perfvec:"
	// HotPathDirective marks a function whose body must be free of
	// heap-allocating constructs (see the hotalloc analyzer).
	HotPathDirective = "//perfvec:hotpath"
	// AllowDirective waives one finding on its line:
	//   //perfvec:allow <analyzer>[/<category>] -- <justification>
	// The justification is mandatory; a bare allow is itself a finding.
	AllowDirective = "//perfvec:allow"
)

// HasDirective reports whether the function declaration carries the given
// directive (e.g. HotPathDirective) in its doc comment.
func HasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, directive); ok {
			if text == "" || text[0] == ' ' || text[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// allowsAt reports whether a //perfvec:allow directive on the diagnostic's
// line (trailing comment) waives a finding of the given analyzer/category.
// Both "analyzer" and "analyzer/category" spellings match; the directive must
// carry a "--"-separated justification to count.
func (p *Pass) allowsAt(pos token.Pos, analyzer, category string) bool {
	if !pos.IsValid() {
		return false
	}
	line := p.Fset.Position(pos).Line
	file := p.Fset.File(pos)
	if file == nil {
		return false
	}
	for _, f := range p.Files {
		if p.Fset.File(f.Pos()) != file {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if p.Fset.Position(c.Pos()).Line != line {
					continue
				}
				if allowMatches(c.Text, analyzer, category) {
					return true
				}
			}
		}
	}
	return false
}

// allowMatches parses one comment as an allow directive and matches it
// against analyzer/category.
func allowMatches(comment, analyzer, category string) bool {
	rest, ok := strings.CutPrefix(comment, AllowDirective)
	if !ok {
		return false
	}
	rest = strings.TrimSpace(rest)
	what, justification, ok := strings.Cut(rest, "--")
	if !ok || strings.TrimSpace(justification) == "" {
		return false // a waiver without a written reason does not waive
	}
	for _, w := range strings.Fields(what) {
		if w == analyzer || (category != "" && w == analyzer+"/"+category) {
			return true
		}
	}
	return false
}
