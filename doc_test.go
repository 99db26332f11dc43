package repro

import (
	"go/parser"
	"go/token"
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
