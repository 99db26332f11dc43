package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocReferencedFilesExist keeps the documentation honest: every Markdown
// file a comment in a non-test Go file of this module points readers to
// must exist at that path, relative to the repository root. testdata
// directories and nested modules (directories with their own go.mod) are
// not part of the module and are skipped.
func TestDocReferencedFilesExist(t *testing.T) {
	mdRef := regexp.MustCompile(`[\w./-]+\.md\b`)
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		for _, cg := range f.Comments {
			for _, ref := range mdRef.FindAllString(cg.Text(), -1) {
				if _, err := os.Stat(ref); err != nil {
					t.Errorf("%s references %s, which does not exist: %v", path, ref, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files checked")
	}
}

// TestCIFuzzSteps keeps CI's fuzz steps and the module's fuzz targets in
// step. go test exits 0 with "no fuzz tests to fuzz" when -fuzz matches
// nothing, so a step left behind by a deleted target would pass silently,
// and a new target would never be fuzzed unless a step names it. Every
// -fuzz step in .github/workflows/ci.yml must name, as '^Name$', one
// function that a _test.go file of its package defines, and every
// func FuzzX(*testing.F) in the module must have such a step.
func TestCIFuzzSteps(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	fuzzFlag := regexp.MustCompile(`-fuzz[ =]'\^(\w+)\$'`)
	pkgArg := regexp.MustCompile(`\s\./(\S*)`)
	type target struct{ dir, name string }
	stepped := map[target]bool{}
	for i, line := range strings.Split(string(ci), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") || !strings.Contains(line, "-fuzz") {
			continue
		}
		name := fuzzFlag.FindStringSubmatch(line)
		pkgs := pkgArg.FindAllStringSubmatch(line, -1)
		if name == nil || len(pkgs) != 1 {
			t.Errorf("ci.yml:%d: a fuzz step must name one target as -fuzz '^Name$' and one ./package: %s", i+1, strings.TrimSpace(line))
			continue
		}
		stepped[target{filepath.Clean(pkgs[0][1]), name[1]}] = true
	}
	if len(stepped) == 0 {
		t.Fatal("ci.yml has no fuzz steps")
	}

	fset := token.NewFileSet()
	defined := map[target]bool{} // every top-level func of a _test.go file
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			key := target{dir, fn.Name.Name}
			defined[key] = true
			params := fn.Type.Params.List
			fuzz := strings.HasPrefix(key.name, "Fuzz") && len(params) == 1 && len(params[0].Names) <= 1 &&
				types.ExprString(params[0].Type) == "*testing.F"
			if fuzz && !stepped[key] {
				t.Errorf("%s: %s has no CI fuzz step (go test -run '^$' -fuzz '^%s$' -fuzztime=10s ./%s/)",
					path, fn.Name.Name, fn.Name.Name, filepath.ToSlash(dir))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range stepped {
		if !defined[key] {
			t.Errorf("ci.yml fuzzes %s in ./%s/, and no _test.go there defines it", key.name, filepath.ToSlash(key.dir))
		}
	}
}
