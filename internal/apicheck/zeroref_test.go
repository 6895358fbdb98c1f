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

// testOnly names the top-level declarations under internal/ that only tests
// reference, each with why it stays. A key is "pkg.Name", pkg being the
// declaring package's path below internal/. Production code earns its place
// by a production caller; these earn theirs by a test that checks
// production code against them, or as the knobs such tests turn.
var testOnly = map[string]string{
	"engine.NewReferenceSubstrate": "the scan differential oracle: TestDifferentialScanUnit / TestDifferentialScanAugmented (engine) and TestReferenceSubstrateStatsIdentity (miner) check the columnar substrate against it",
	"engine.WithScanParallelism":   "a knob the differential and fold-oracle tests turn on NewColumnarSubstrate, which benchmark/ calls; Config.ScanParallelism is its production spelling",
	"engine.WithMinMaxColumns":     "a knob TestDifferentialScanUnit and TestFilteredScanMatchesPerRowFold turn on NewColumnarSubstrate, which benchmark/ calls",
	"engine.withMorselSize":        "forces the multi-morsel merge path on small tables in TestParallelScanManyMorsels and the fold oracles",
	"core.Sim":                     "Equation 8 as stated: TestBuildMetaInsightClassesAreSimClasses checks BuildMetaInsight's commonness classes against it",
	"core.SubspaceHDS":             "Equation 4 as stated: TestUnitsCarryHandlesThatAgreeWithTheirValues (miner) checks the HDSs the miner's handles build against it",
	"ranker.TotalUseApprox":        "Equation 22 as stated: TestApproxMatchesExactForPairs checks TotalUseExact against it",
	"ranker.SubspaceOverlapRatio":  "Definition 9.1 as stated: TestRootOverlapMatchesDefinition checks OverlapRatio's in-place subspace factor against it",
}

// TestNoUnreferencedInternalNames gates the internal packages on names that
// earn their place: every top-level const, var, func or type declared in a
// non-test file under internal/, exported or not, must be referenced from a
// non-test Go file of the module (the root package, cmd/, examples/,
// benchmark/ and internal/ all count; _test.go files do not). The only
// exceptions are the testOnly entries, and an entry fails too once its name
// gains a production reference, loses its last test reference or no longer
// exists. Methods are exempt: they can exist to satisfy an interface.
func TestNoUnreferencedInternalNames(t *testing.T) {
	findings, err := unreferenced(repoRoot(t), testOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestZeroReferenceGateFires proves the gate on a synthetic module: an
// internal package whose names are referenced from another package, from
// benchmark/, from a sibling file, from their own file, only by tests, only
// by a method or a field of the same name, only by a shadowing local, or not
// at all; an allowlisted name a test uses, an allowlisted name that gained a
// production caller, and an allowlist entry naming nothing.
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

// helper is called by a test only.
func helper() {}

// local is not referenced: only a local variable of the same name is.
var local = 4

func init() {
	local := 5
	_ = local
}

// Oracle is allowlisted and a test uses it.
func Oracle() {}

// Promoted is allowlisted but has a production caller.
func Promoted() {}
`)
	write("internal/a/b.go", `package a

var _ Sibling

type holder struct{ Shadowed int }

func (holder) Shadowed() {}
`)
	write("internal/a/a_test.go", `package a

func use() { helper(); Oracle() }
`)
	write("internal/a/x_test.go", `package a_test

import alias "metainsight/internal/a"

var _ = alias.Tested
`)
	write("benchmark/bench.go", `package benchmark

import "metainsight/internal/a"

var _ = a.Benched
`)
	write("root.go", `package metainsight

import "metainsight/internal/a"

func run() { a.Used(); a.Promoted() }
`)
	write(".hidden/skip.go", `package skip

import "metainsight/internal/a"

var _ = a.Unused
`)
	allow := map[string]string{
		"a.Oracle":   "checked against production",
		"a.Promoted": "was test-only",
		"a.Gone":     "deleted since",
	}
	findings, err := unreferenced(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Tested", "Unused", "Shadowed", "helper", "local", "Promoted", "a.Gone"}
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

// unreferenced returns the gate's findings: one, in file and line order, per
// top-level name declared in a non-test file under root/internal that no
// non-test Go file under root references and allow does not name, or that
// allow names but a non-test file references or no file references at all;
// then one per allow entry that names no such declaration. References are
// matched by name without type checking: a qualified pkg.Name through an
// import of the declaring package, or a bare Name in a file of that package
// that does not resolve to a local declaration. Directories the go tool
// ignores (names starting with "." or "_", testdata) are skipped.
func unreferenced(root string, allow map[string]string) ([]string, error) {
	type decl struct {
		nameRef
		key  string // the allowlist key, "pkg.Name"
		file string
		line int
	}
	var decls []decl
	prodRefs, testRefs := map[nameRef]bool{}, map[nameRef]bool{}
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
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		refs := prodRefs
		if isTest {
			refs = testRefs
		}
		// Top-level declarations: a bare name resolving to one of them (or
		// resolving to nothing in this file) refers to the package scope.
		topLevel := map[any]bool{}
		for _, id := range topLevelNames(f) {
			if id.Obj != nil { // init functions are not declared
				topLevel[id.Obj.Decl] = true
			}
		}
		if !isTest && strings.HasPrefix(pkgPath, modulePath+"/internal/") {
			short := strings.TrimPrefix(pkgPath, modulePath+"/internal/")
			for _, id := range topLevelNames(f) {
				if id.Name != "_" && id.Name != "init" {
					decls = append(decls, decl{nameRef{pkgPath, id.Name}, short + "." + id.Name, path, fset.Position(id.Pos()).Line})
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
				if samePkg && !declaring[n] && (n.Obj == nil || topLevel[n.Obj.Decl]) {
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
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		var problem string
		_, listed := allow[d.key]
		switch {
		case listed && prodRefs[d.nameRef]:
			problem = "has a production reference; drop it from testOnly"
		case !prodRefs[d.nameRef] && !testRefs[d.nameRef]:
			problem = "is referenced nowhere in the module; delete it"
		case !listed && !prodRefs[d.nameRef]:
			problem = "is referenced only by tests; delete it, move it into a _test.go file, or name in testOnly the test that checks production code against it"
		default:
			continue
		}
		rel, _ := filepath.Rel(root, d.file)
		findings = append(findings, rel+":"+strconv.Itoa(d.line)+": "+d.name+" "+problem)
	}
	var stale []string
	for key := range allow {
		if !declared[key] {
			stale = append(stale, "testOnly entry "+key+" names no declaration under internal/; drop it")
		}
	}
	sort.Strings(stale)
	return append(findings, stale...), nil
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
