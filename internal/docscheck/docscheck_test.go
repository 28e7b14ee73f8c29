// Package docscheck enforces four documentation and surface rules offline,
// with go/ast only. Every exported identifier in the public package and the
// internal packages must carry a real doc comment (no bare names), and
// type/function comments must start with the identifier they document — the
// same policy the revive `exported` rule enforces in CI, mirrored here so doc
// coverage cannot regress where CI's network-installed linters are
// unavailable. Every exported function or method under internal/ must have a
// non-test caller (callers_test.go). Every "DESIGN.md §N" reference must name
// a section (design_test.go). The non-test Go code and DESIGN.md stay under
// their line ceilings (size_test.go).
package docscheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// packages under the exported-comment policy, relative to the repo root:
// the public package and every internal package with non-test code.
var packages = []string{
	".",
	"internal/grid",
	"internal/market",
	"internal/dataset",
	"internal/netem",
	"internal/paillier",
	"internal/core",
	"internal/transport",
	"internal/ledger",
	"internal/store",
	"internal/fixed",
	"internal/gc",
	"internal/ot",
	"internal/secchan",
}

// repoRoot locates the repository root from this test file's path.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// TestExportedIdentifiersDocumented walks the policy packages and reports
// every exported identifier without a usable doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	root := repoRoot(t)
	var missing []string
	for _, rel := range packages {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				missing = append(missing, checkFile(fset, file)...)
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// checkFile reports undocumented exported declarations in one file.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var bad []string
	report := func(pos token.Pos, kind, name, why string) {
		p := fset.Position(pos)
		bad = append(bad, fmt.Sprintf("%s:%d: %s %s %s", filepath.Base(p.Filename), p.Line, kind, name, why))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			switch {
			case emptyDoc(d.Doc):
				report(d.Pos(), "func", d.Name.Name, "has no doc comment")
			case !startsWithName(d.Doc, d.Name.Name):
				report(d.Pos(), "func", d.Name.Name, "doc comment does not start with the identifier")
			}
		case *ast.GenDecl:
			groupDoc := !emptyDoc(d.Doc)
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					doc := s.Doc
					if emptyDoc(doc) {
						doc = d.Doc
					}
					switch {
					case emptyDoc(doc):
						report(s.Pos(), "type", s.Name.Name, "has no doc comment")
					case !startsWithName(doc, s.Name.Name):
						report(s.Pos(), "type", s.Name.Name, "doc comment does not start with the identifier")
					}
					bad = append(bad, checkStructFields(fset, s)...)
				case *ast.ValueSpec:
					// Const/var groups may share one block comment; each
					// exported spec otherwise needs its own.
					specDoc := !emptyDoc(s.Doc) || !emptyDoc(s.Comment)
					for _, name := range s.Names {
						if name.IsExported() && !specDoc && !groupDoc {
							report(name.Pos(), "value", name.Name, "has no doc comment")
						}
					}
				}
			}
		}
	}
	return bad
}

// checkStructFields reports undocumented exported fields of exported
// structs — the config and result surfaces users read most.
func checkStructFields(fset *token.FileSet, s *ast.TypeSpec) []string {
	st, ok := s.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return nil
	}
	var bad []string
	for _, f := range st.Fields.List {
		if emptyDoc(f.Doc) && f.Comment == nil {
			for _, name := range f.Names {
				if name.IsExported() {
					p := fset.Position(name.Pos())
					bad = append(bad, fmt.Sprintf("%s:%d: field %s.%s has no doc comment",
						filepath.Base(p.Filename), p.Line, s.Name.Name, name.Name))
				}
			}
		}
	}
	return bad
}

// exportedReceiver reports whether a method's receiver type is exported
// (free functions count as exported receivers).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

// emptyDoc reports whether a doc comment is missing or blank.
func emptyDoc(cg *ast.CommentGroup) bool {
	return cg == nil || strings.TrimSpace(cg.Text()) == ""
}

// startsWithName reports whether the comment's first word is the
// identifier, optionally preceded by an article or a deprecation marker —
// the classic godoc convention ("Name is …", "A Name holds …").
func startsWithName(cg *ast.CommentGroup, name string) bool {
	text := strings.TrimSpace(cg.Text())
	for _, prefix := range []string{"Deprecated:", "A ", "An ", "The "} {
		text = strings.TrimPrefix(text, prefix)
		text = strings.TrimSpace(text)
	}
	return strings.HasPrefix(text, name)
}
