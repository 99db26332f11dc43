// Package hotalloc makes the zero-allocation budget of the training and
// inference hot paths provable per-function instead of only measurable
// end-to-end: any function annotated
//
//	//perfvec:hotpath
//
// in its doc comment must contain no heap-allocating construct. The analyzer
// flags make/new/append calls, slice and map literals, address-taken
// composite literals, capturing func literals, go statements, and interface
// boxings of non-pointer-shaped values — the construct classes Go's escape
// analysis turns into per-call heap traffic and the exact shapes PRs 3-5
// eliminated from the step (`alloc_test.go` and bench_budget.json gate the
// same invariant dynamically).
//
// A deliberate allocation (a documented cold sub-path, per-call setup outside
// the steady-state loop) is waived one line at a time:
//
//	//perfvec:allow hotalloc -- justification
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "//perfvec:hotpath functions must be free of heap-allocating constructs\n\n" +
		"Flags make/new/append, slice/map literals, &composite literals,\n" +
		"capturing closures, go statements, and interface boxing inside\n" +
		"functions carrying the //perfvec:hotpath annotation.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil && analysis.HasDirective(fn, analysis.HotPathDirective) {
				checkFunc(pass, fn)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						pass.Reportf(n.Pos(), "make", "make in hot path %s heap-allocates", fn.Name.Name)
					case "new":
						pass.Reportf(n.Pos(), "new", "new in hot path %s heap-allocates", fn.Name.Name)
					case "append":
						pass.Reportf(n.Pos(), "append", "append in hot path %s can grow (reallocate) its backing array", fn.Name.Name)
					}
				}
			}
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				pass.Reportf(n.Pos(), "literal",
					"address-taken composite literal in hot path %s escapes to the heap", fn.Name.Name)
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "literal", "slice literal in hot path %s heap-allocates", fn.Name.Name)
			case *types.Map:
				pass.Reportf(n.Pos(), "literal", "map literal in hot path %s heap-allocates", fn.Name.Name)
			}
		case *ast.FuncLit:
			if caps := capturedVars(info, n); len(caps) > 0 {
				pass.Reportf(n.Pos(), "closure",
					"closure in hot path %s captures %s: the func value and its capture block heap-allocate per call (use a typed tensor.Kernel)",
					fn.Name.Name, varNames(caps))
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go",
				"go statement in hot path %s spawns a goroutine per call (use the persistent worker pool)", fn.Name.Name)
		}
		return true
	})

	// Interface boxing: a concrete non-pointer-shaped value converted to an
	// interface forces a heap copy (pointers, channels, maps, and funcs store
	// directly in the interface word; constants fold into static data).
	analysis.VisitConversions(info, fn, func(e ast.Expr, target types.Type) {
		if !holdsInterface(target) {
			return
		}
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
			return
		}
		if holdsInterface(tv.Type) || pointerShaped(tv.Type) {
			return
		}
		pass.Reportf(e.Pos(), "iface",
			"%s value boxed into %s in hot path %s heap-allocates", tv.Type, target, fn.Name.Name)
	})
}

// holdsInterface reports whether a value of type t is an interface value.
// types.IsInterface also says yes for a type parameter, whose underlying
// type is its constraint, but a type-parameter value is stored as the
// instantiated type itself: converting into one never boxes, and
// converting one into a real interface does.
func holdsInterface(t types.Type) bool {
	if _, ok := types.Unalias(t).(*types.TypeParam); ok {
		return false
	}
	return types.IsInterface(t)
}

// pointerShaped reports whether values of t are stored directly in an
// interface's data word, making the conversion allocation-free.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// capturedVars returns the variables lit references that are declared outside
// it (excluding package-level variables and struct fields): the capture block
// the closure would carry.
func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var caps []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if pkg := v.Pkg(); pkg != nil && pkg.Scope().Lookup(v.Name()) == v {
			return true // package-level: no capture
		}
		seen[v] = true
		caps = append(caps, v)
		return true
	})
	return caps
}

func varNames(vars []*types.Var) string {
	s := ""
	for i, v := range vars {
		if i > 0 {
			s += ", "
		}
		s += v.Name()
	}
	return s
}
