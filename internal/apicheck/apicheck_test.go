// Package apicheck gates the repo's own consumers of the public API — the
// binaries under cmd/, the examples and the daemon in internal/serve — on
// the non-deprecated surface: none of them may reference a root-package
// identifier whose doc comment carries a "Deprecated:" paragraph. The
// deprecated set is read from those markers, so it never needs syncing. The
// check is AST-based so it needs no third-party linters; scripts/vet.sh
// additionally runs staticcheck's deprecation analysis when the tool is
// installed.
package apicheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "metainsight"

// consumers are the directories, relative to the module root, whose Go files
// must stay off the deprecated surface.
var consumers = []string{"cmd", "examples", filepath.Join("internal", "serve")}

func TestNoDeprecatedAPIUsage(t *testing.T) {
	root := repoRoot(t)
	deprecated, err := deprecatedNames(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(deprecated) == 0 {
		t.Fatal("the root package marks nothing Deprecated; with no deprecated surface left, this gate can go")
	}
	for _, dir := range consumers {
		for _, finding := range walk(t, filepath.Join(root, dir), deprecated) {
			t.Error(finding)
		}
	}
}

// TestGateFires proves the gate on a synthetic module: a root file that
// marks a function and a variable Deprecated, a test file whose marker must
// not count, and a consumer that references all three under an import alias
// beside a supported call.
func TestGateFires(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("api.go", `package metainsight

// Old is the former entry point.
//
// Deprecated: use New.
func Old() {}

// New is the entry point.
func New() {}

// Gone is an old name.
//
// Deprecated: use New.
var Gone = New
`)
	write("api_test.go", `package metainsight

// Deprecated: test files do not define the public surface.
func TestOnly() {}
`)
	write(filepath.Join("cmd", "tool", "main.go"), `package main

import mi "metainsight"

func main() {
	mi.New()
	mi.Old()
	_ = mi.Gone
	mi.TestOnly()
}
`)
	deprecated, err := deprecatedNames(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(deprecated) != 2 || !deprecated["Old"] || !deprecated["Gone"] {
		t.Fatalf("deprecated set = %v, want Old and Gone", deprecated)
	}
	findings := walk(t, filepath.Join(root, "cmd"), deprecated)
	if len(findings) != 2 || !strings.Contains(findings[0], "metainsight.Old") ||
		!strings.Contains(findings[1], "metainsight.Gone") {
		t.Fatalf("findings = %q, want one for Old and one for Gone", findings)
	}
}

// deprecatedNames returns the exported top-level identifiers of the package
// in dir (its non-test files) whose doc comment has a Deprecated paragraph.
func deprecatedNames(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	mark := func(doc *ast.CommentGroup, id *ast.Ident) {
		if id.IsExported() && isDeprecated(doc) {
			names[id.Name] = true
		}
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					mark(d.Doc, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						mark(docOf(s.Doc, d), s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							mark(docOf(s.Doc, d), id)
						}
					}
				}
			}
		}
	}
	return names, nil
}

// docOf is a spec's own doc comment, or its declaration's when the
// declaration holds this one spec alone.
func docOf(spec *ast.CommentGroup, d *ast.GenDecl) *ast.CommentGroup {
	if spec == nil && len(d.Specs) == 1 {
		return d.Doc
	}
	return spec
}

// isDeprecated reports whether a doc comment has a paragraph starting with
// "Deprecated:", the convention go doc and staticcheck recognize.
func isDeprecated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	return strings.HasPrefix(doc.Text(), "Deprecated: ") ||
		strings.Contains(doc.Text(), "\n\nDeprecated: ")
}

// walk checks every Go file under dir and returns one finding per reference
// to a deprecated root-package identifier.
func walk(t *testing.T, dir string, deprecated map[string]bool) []string {
	t.Helper()
	var findings []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		found, err := checkFile(path, deprecated)
		findings = append(findings, found...)
		return err
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	return findings
}

func checkFile(path string, deprecated map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	// Names the root metainsight package is imported under in this file.
	pkgNames := map[string]bool{}
	for _, imp := range f.Imports {
		ip, err := strconv.Unquote(imp.Path.Value)
		if err != nil || ip != modulePath {
			continue
		}
		name := "metainsight"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgNames[name] = true
	}
	if len(pkgNames) == 0 {
		return nil, nil
	}
	var findings []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !pkgNames[id.Name] || !deprecated[sel.Sel.Name] {
			return true
		}
		pos := fset.Position(sel.Pos())
		findings = append(findings, pos.Filename+":"+strconv.Itoa(pos.Line)+
			": deprecated metainsight."+sel.Sel.Name+"; use NewSession / Session.Analyze and the Request")
		return true
	})
	return findings, nil
}

// repoRoot walks up from this package to the directory holding go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package directory")
		}
		dir = parent
	}
}
