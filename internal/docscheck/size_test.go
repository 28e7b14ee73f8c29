package docscheck

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Size ceilings: line targets the code base has met, held so they are not
// lost again. benchmark/ is a module of its own and is not counted.
const (
	// maxCodeLines bounds the non-test Go lines of the root package,
	// internal/ and cmd/, counted as `wc -l` counts them.
	maxCodeLines = 13693
	// maxDesignLines bounds DESIGN.md.
	maxDesignLines = 500
)

// TestSizeCeilings fails when the non-test Go code or DESIGN.md grows past
// its ceiling.
func TestSizeCeilings(t *testing.T) {
	root := repoRoot(t)
	lines := func(path string) int {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	isCode := func(path string) bool {
		return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
	}

	code := 0
	top, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range top {
		if isCode(path) {
			code += lines(path)
		}
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && isCode(path) {
				code += lines(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if code > maxCodeLines {
		t.Errorf("%d non-test Go lines under the root package, internal/ and cmd/, ceiling %d", code, maxCodeLines)
	}
	if n := lines(filepath.Join(root, "DESIGN.md")); n > maxDesignLines {
		t.Errorf("DESIGN.md has %d lines, ceiling %d", n, maxDesignLines)
	}
}
