package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked package ready to be analyzed.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath      string
	Name            string
	Dir             string
	Export          string
	Standard        bool
	DepOnly         bool
	CompiledGoFiles []string
	GoFiles         []string
	Error           *struct{ Err string }
}

// Load lists patterns with the go tool (plus -deps -export, so every
// dependency's export data lands in the build cache), then parses and
// type-checks each matched package from source, resolving imports through the
// dependencies' export data. buildTags is passed to `go list -tags`.
func Load(patterns []string, buildTags string) ([]*Package, error) {
	exports, targets, err := listExportDeps(patterns, buildTags)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, p := range targets {
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// listExportDeps runs `go list -deps -export` over patterns, returning the
// export-data file for every listed package plus the non-dep targets.
func listExportDeps(patterns []string, buildTags string) (map[string]string, []*listPkg, error) {
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,CompiledGoFiles,GoFiles,Error"}
	if buildTags != "" {
		args = append(args, "-tags", buildTags)
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	return exports, targets, nil
}

// ListExports resolves the export-data files for patterns and everything they
// depend on — used by the analysistest harness to type-check fixture packages
// against real repo and standard-library imports.
func ListExports(patterns []string) (map[string]string, error) {
	exports, _, err := listExportDeps(patterns, "")
	return exports, err
}

// checkPackage parses and type-checks one listed package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, p *listPkg) (*Package, error) {
	names := p.CompiledGoFiles
	if len(names) == 0 {
		names = p.GoFiles
	}
	var files []*ast.File
	for _, name := range names {
		if !strings.HasSuffix(name, ".go") {
			continue // cgo-compiled or cached artifacts; none in this repo
		}
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	cfg := types.Config{Importer: imp}
	tpkg, err := cfg.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{
		ImportPath: p.ImportPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers consult
// populated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
