package docscheck

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// designHeading matches a numbered section of DESIGN.md.
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// designRef matches "DESIGN.md §N", also when a line break and a
	// comment marker fall between the two.
	designRef = regexp.MustCompile(`DESIGN\.md(?:\s|//|#|\*)*§(\d+)`)
	// selfRef matches a bare "§N" inside DESIGN.md; the paper's own sections
	// are Roman numerals and never match.
	selfRef = regexp.MustCompile(`§(\d+)`)
)

// TestDesignReferencesResolve requires every "DESIGN.md §N" in a .go file,
// README.md, docs/*.md or a skill's SKILL.md — and every "§N" inside
// DESIGN.md — to name an existing "## N." heading, so renumbering the
// document cannot orphan a pointer.
func TestDesignReferencesResolve(t *testing.T) {
	root := repoRoot(t)
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}

	var orphans []string
	found := 0
	check := func(rel string, re *regexp.Regexp, text string) {
		for _, m := range re.FindAllStringSubmatchIndex(text, -1) {
			found++
			if n := text[m[2]:m[3]]; !sections[n] {
				line := 1 + strings.Count(text[:m[0]], "\n")
				orphans = append(orphans, rel+":"+strconv.Itoa(line)+": §"+n)
			}
		}
	}
	check("DESIGN.md", selfRef, string(design))

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") && name != ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		scanned := strings.HasSuffix(rel, ".go") || rel == "README.md" ||
			(strings.HasPrefix(rel, "docs/") && strings.HasSuffix(rel, ".md")) ||
			(strings.HasPrefix(rel, ".claude/skills/") && d.Name() == "SKILL.md")
		if !scanned {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		check(rel, designRef, string(text))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no DESIGN.md references found; the pattern no longer matches")
	}
	if len(orphans) > 0 {
		t.Errorf("%d DESIGN.md references name no section:\n  %s", len(orphans), strings.Join(orphans, "\n  "))
	}
}
