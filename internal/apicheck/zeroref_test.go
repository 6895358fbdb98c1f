package apicheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreferencedInternalNames gates the internal packages on names that
// earn their place: every exported top-level const, var, func or type under
// internal/ must be referenced somewhere in the module's Go files beyond its
// own declaration (test files and benchmark/ count). A name nothing refers to
// is dead. Methods are exempt: they can exist to satisfy an interface.
func TestNoUnreferencedInternalNames(t *testing.T) {
	findings, err := unreferenced(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestZeroReferenceGateFires proves the gate on a synthetic module: an
// internal package whose exported names are referenced from another package,
// from a test file, from benchmark/, from a sibling file, from their own
// file, only by a method or a field of the same name, or not at all.
func TestZeroReferenceGateFires(t *testing.T) {
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
	write("go.mod", "module metainsight\n")
	write("internal/a/a.go", `package a

// Used is called from the root package.
func Used() {}

// Tested is referenced by a test file only.
const Tested = 1

// Benched is referenced from benchmark/ only.
var Benched = 2

// Sibling is used by another file of the package.
type Sibling int

// Self is used in its own file only.
const Self = 3

var _ = Self

// Unused is referenced nowhere.
func Unused() {}

// Shadowed is not referenced: only a method and a field share its name.
type Shadowed struct{}

// Method is exempt.
func (Sibling) Method() {}
`)
	write("internal/a/b.go", `package a

var _ Sibling

type holder struct{ Shadowed int }

func (holder) Shadowed() {}
`)
	write("internal/a/a_test.go", `package a_test

import alias "metainsight/internal/a"

var _ = alias.Tested
`)
	write("benchmark/bench.go", `package benchmark

import "metainsight/internal/a"

var _ = a.Benched
`)
	write("root.go", `package metainsight

import "metainsight/internal/a"

func run() { a.Used() }
`)
	write(".hidden/skip.go", `package skip

import "metainsight/internal/a"

var _ = a.Unused
`)
	findings, err := unreferenced(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Unused", "Shadowed"}
	if len(findings) != len(want) {
		t.Fatalf("findings = %q, want one each for %v", findings, want)
	}
	for i, name := range want {
		if !strings.Contains(findings[i], " "+name+" ") {
			t.Errorf("finding %d = %q, want %s", i, findings[i], name)
		}
	}
}

// nameRef is a top-level name of the package at an import path.
type nameRef struct{ path, name string }

// unreferenced returns one finding, in file and line order, per exported
// top-level name declared in a non-test file under root/internal that no Go
// file under root references. References are matched by name without type
// checking: a qualified pkg.Name through an import of the declaring package,
// or a bare Name in a file of that package. Directories the go tool ignores
// (names starting with "." or "_", testdata) are skipped.
func unreferenced(root string) ([]string, error) {
	type decl struct {
		nameRef
		file string
		line int
	}
	var decls []decl
	refs := map[nameRef]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgPath := modulePath
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(name, "_test.go") && strings.HasPrefix(pkgPath, modulePath+"/internal/") {
			for _, id := range topLevelNames(f) {
				if id.IsExported() {
					decls = append(decls, decl{nameRef{pkgPath, id.Name}, path, fset.Position(id.Pos()).Line})
				}
			}
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			local := ip[strings.LastIndex(ip, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		samePkg := !strings.HasSuffix(f.Name.Name, "_test")
		// Names that declare rather than use: functions and methods, types,
		// constants and variables, and struct and interface fields.
		declaring := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declaring[n.Name] = true
			case *ast.TypeSpec:
				declaring[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					refs[nameRef{imports[x.Name], n.Sel.Name}] = true
				}
				declaring[n.Sel] = true
			case *ast.Ident:
				if samePkg && !declaring[n] {
					refs[nameRef{pkgPath, n.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].file != decls[j].file {
			return decls[i].file < decls[j].file
		}
		return decls[i].line < decls[j].line
	})
	var findings []string
	for _, d := range decls {
		if !refs[d.nameRef] {
			rel, _ := filepath.Rel(root, d.file)
			findings = append(findings, rel+":"+strconv.Itoa(d.line)+": exported "+d.name+
				" is referenced nowhere in the module; delete it")
		}
	}
	return findings, nil
}

// topLevelNames returns the names a file declares at top level: its
// functions (not methods), types, constants and variables.
func topLevelNames(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	return ids
}
