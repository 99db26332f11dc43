package repro

import (
	"os"
	"regexp"
	"testing"
)

// TestDocReferencedFilesExist keeps the package documentation honest: every
// Markdown file doc.go points readers to must exist at that path, relative
// to the repository root.
func TestDocReferencedFilesExist(t *testing.T) {
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range regexp.MustCompile(`[\w./-]+\.md\b`).FindAllString(string(src), -1) {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("doc.go references %s, which does not exist: %v", path, err)
		}
	}
}
