package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the repository's root module.
const modulePath = "github.com/pem-go/pem"

// exportExceptions are the internal exports with no non-test caller that
// stay anyway, each with the reason. Keys are "pkg.Func" or
// "pkg.Type.Method", pkg being the directory under internal/.
var exportExceptions = map[string]string{
	"transport.NewFaultConn":                  "cross-package fault injection for the scheduler and grid isolation tests",
	"transport.FaultConn.DropNextInWindow":    "cross-package fault injection for the scheduler and grid isolation tests",
	"transport.FaultConn.CorruptNextInWindow": "cross-package fault injection for the scheduler and grid isolation tests",
	"transport.FaultConn.FailAll":             "cross-package fault injection for the scheduler and grid isolation tests",
	"transport.FaultConn.FailWindow":          "cross-package fault injection for the scheduler and grid isolation tests",
	"transport.Metrics.LiveWindows":           "the sink-leak checks' gauge of windows opened and not yet ended",
	"gc.Circuit.EvalPlain":                    "the plaintext reference evaluator the garbling tests compare against",
	"market.OptimalLoad":                      "Eq. 9, the reference model the incentive tests check",
	"market.CoalitionCost":                    "Eq. 7, the reference model the incentive tests check",
	"paillier.PublicKey.AddPlain":             "the hybrid Protocol 4 tests forge totals with it; noise-flooding Protocol 4's ratios would build on it",
	"ledger.Ledger.TamperForTest":             "the ledger tamper-detection tests in other packages",
	"core.KeyRing.Holds":                      "the grid key-ring test's only view of eviction",
	"dataset.ReadCSV":                         "the real-trace loader",
	"ot.TestGroup":                            "called by the frozen benchmark module's test",
}

// exemptMethods are method names callers reach through interfaces the
// standard library or the fmt/errors machinery dispatches on.
var exemptMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true, "Read": true}

// TestInternalExportsHaveCallers requires every exported function or method
// declared in a non-test file under internal/ to be named, somewhere other
// than its own declaration, by a non-test file of the module or of
// benchmark/: a function as pkg.F (or a bare F inside its own package), a
// method through a .M selector. An export only tests reach is surface to
// delete, or to list in exportExceptions with a reason; an exception the
// rule would not flag fails too, so the list cannot go stale.
func TestInternalExportsHaveCallers(t *testing.T) {
	root := repoRoot(t)
	files := parseNonTestFiles(t, root)

	conn := interfaceMethods(files, "transport", "Conn")
	if len(conn) == 0 {
		t.Fatal("transport.Conn not found")
	}

	var uncalled []string
	flagged := map[string]bool{}
	for _, f := range files {
		pkg, ok := internalPkg(f.dir)
		if !ok {
			continue
		}
		for _, decl := range f.file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || !d.Name.IsExported() {
				continue
			}
			name, key := d.Name.Name, pkg+"."+d.Name.Name
			if d.Recv != nil {
				recv := recvType(d)
				if !ast.IsExported(recv) || exemptMethods[name] || (pkg == "transport" && conn[name]) {
					continue
				}
				key = pkg + "." + recv + "." + name
			}
			if slices.ContainsFunc(files, func(g *sourceFile) bool {
				if d.Recv != nil {
					return g.selectors[name]
				}
				return g.qualified[pkg+"."+name] || (g.dir == f.dir && g.bare[name])
			}) {
				continue
			}
			flagged[key] = true
			if _, ok := exportExceptions[key]; !ok {
				uncalled = append(uncalled, key)
			}
		}
	}
	slices.Sort(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d internal exports have no non-test caller (delete them, or list one in exportExceptions with a reason):\n  %s",
			len(uncalled), strings.Join(uncalled, "\n  "))
	}
	for key, reason := range exportExceptions {
		switch {
		case !flagged[key]:
			t.Errorf("exportExceptions[%q] is stale: the export is gone or has a non-test caller", key)
		case strings.TrimSpace(reason) == "":
			t.Errorf("exportExceptions[%q] has no reason", key)
		}
	}
}

// sourceFile is one parsed non-test file and the names it uses.
type sourceFile struct {
	dir       string // relative to the repository root
	file      *ast.File
	qualified map[string]bool // "pkg.F" for internal/pkg selectors
	selectors map[string]bool // every other .M selector
	bare      map[string]bool // unqualified identifiers, declarations excluded
}

// parseNonTestFiles parses every non-test .go file of the repository,
// benchmark/ included, and records the names each one uses.
func parseNonTestFiles(t *testing.T, root string) []*sourceFile {
	t.Helper()
	var files []*sourceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files = append(files, usage(rel, file))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// usage records the names one file uses.
func usage(rel string, file *ast.File) *sourceFile {
	f := &sourceFile{
		dir: filepath.Dir(rel), file: file,
		qualified: map[string]bool{}, selectors: map[string]bool{}, bare: map[string]bool{},
	}
	imports := map[string]string{} // local name → internal package
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		pkg, ok := strings.CutPrefix(path, modulePath+"/internal/")
		if !ok {
			continue
		}
		name := filepath.Base(pkg)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = pkg
	}
	skip := map[*ast.Ident]bool{}
	for _, decl := range file.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok {
			skip[d.Name] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			skip[x.Sel] = true
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
				f.qualified[imports[id.Name]+"."+x.Sel.Name] = true
				skip[id] = true
			} else {
				f.selectors[x.Sel.Name] = true
			}
		case *ast.Ident:
			if !skip[x] {
				f.bare[x.Name] = true
			}
		}
		return true
	})
	return f
}

// internalPkg returns the package name of a directory under internal/.
func internalPkg(dir string) (string, bool) {
	pkg, ok := strings.CutPrefix(filepath.ToSlash(dir), "internal/")
	return pkg, ok && !strings.Contains(pkg, "/")
}

// recvType names a method's receiver type.
func recvType(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// interfaceMethods lists the methods of the named interface declared in
// internal/pkg.
func interfaceMethods(files []*sourceFile, pkg, name string) map[string]bool {
	methods := map[string]bool{}
	for _, f := range files {
		if f.dir != filepath.Join("internal", pkg) {
			continue
		}
		for _, decl := range f.file.Decls {
			g, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range g.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if it, ok := ts.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, n := range m.Names {
							methods[n.Name] = true
						}
					}
				}
			}
		}
	}
	return methods
}
