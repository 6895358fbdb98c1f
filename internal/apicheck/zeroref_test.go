package apicheck

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnly names the top-level declarations under internal/ that only tests
// reference, and the methods under internal/ or in the root package that are
// not live (see testOnlyMethods), each with why it stays. A key is
// "pkg.Name" or "pkg.Type.Method", pkg being the declaring package's path
// below internal/ (metainsight for the root package). Production code earns
// its place by a production caller; these earn theirs by a test that checks
// production code against them.
var testOnly = map[string]string{
	"engine.NewReferenceSubstrate": "the scan differential oracle: TestDifferentialScanUnit / TestDifferentialScanAugmented (engine) and TestReferenceSubstrateStatsIdentity (miner) check the columnar substrate against it",
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
// exists. Methods are TestNoTestOnlyMethods' to judge.
func TestNoUnreferencedInternalNames(t *testing.T) {
	m, err := loadTyped(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unreferenced(m, testOnly) {
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

var _ holder

type other struct{}

func (other) Shadowed() {}
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
	m, err := loadTyped(root)
	if err != nil {
		t.Fatal(err)
	}
	findings := unreferenced(m, allow)
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

// unreferenced returns the top-level gate's findings: one, in file and line
// order, per package-level name declared in a non-test file under
// root/internal that no non-test Go file of the module uses and allow does
// not name, or that allow names but a non-test file uses or no file uses at
// all; then one per allow entry of the form "pkg.Name" that names no such
// declaration.
func unreferenced(m *typedModule, allow map[string]string) []string {
	used := map[string]bool{}
	for _, obj := range m.info.Uses {
		if key, ok := objectKey(obj); ok {
			used[key] = true
		}
	}
	type decl struct {
		key, name, file string
		line            int
	}
	var decls []decl
	for path, p := range m.prod {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			key, _ := objectKey(obj)
			pos := m.fset.Position(obj.Pos())
			decls = append(decls, decl{key, name, pos.Filename, pos.Line})
		}
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
		case listed && used[d.key]:
			problem = "has a production reference; drop it from testOnly"
		case !used[d.key] && !m.tested[d.key]:
			problem = "is referenced nowhere in the module; delete it"
		case !listed && !used[d.key]:
			problem = "is referenced only by tests; delete it, move it into a _test.go file, or name in testOnly the test that checks production code against it"
		default:
			continue
		}
		rel, _ := filepath.Rel(m.root, d.file)
		findings = append(findings, rel+":"+strconv.Itoa(d.line)+": "+d.name+" "+problem)
	}
	var stale []string
	for key := range allow {
		if strings.Count(key, ".") == 1 && !declared[key] {
			stale = append(stale, "testOnly entry "+key+" names no declaration under internal/; drop it")
		}
	}
	sort.Strings(stale)
	return append(findings, stale...)
}

// TestNoTestOnlyMethods gates methods the way TestNoUnreferencedInternalNames
// gates top-level names: every method declared in a non-test file under
// internal/ or in the root package must be live (see testOnlyMethods) or have a
// testOnly entry, keyed "pkg.Type.Method", naming the test that checks
// production code against it.
func TestNoTestOnlyMethods(t *testing.T) {
	m, err := loadTyped(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := testOnlyMethods(m, testOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestMethodGateFires proves the method gate on a synthetic module. It must
// report a method only tests call, one only a test reaches through a root
// alias, one whose interface nothing calls through, an allowlisted method
// that is live and an allowlist entry naming no method. It must stay silent
// on methods called, taken as values or promoted through an embedded field,
// on implementations of fmt.Stringer, json.Marshaler, heap.Interface (through
// heap.Init, generic or not) and a module interface called through, on an
// aliased method README.md calls and on an allowlisted method a test calls.
func TestMethodGateFires(t *testing.T) {
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
	write("README.md", "Call `t.Documented()` for the docs.\n")
	write("internal/a/a.go", `package a

import (
	"container/heap"
	"encoding/json"
)

type T struct{ Inner }

func (T) Used()                         {}
func (T) Valued()                       {}
func (T) TestOnly()                     {}
func (T) Aliased()                      {}
func (T) Documented()                   {}
func (T) String() string                { return "" }
func (T) MarshalJSON() ([]byte, error) { return json.Marshal(0) }
func (T) Oracle()                       {}
func (T) Promoted()                     {}

type Inner struct{}

func (Inner) Embedded() {}

// Substrate is called through; Quiet is not.
type Substrate interface{ Scan() int }
type Quiet interface{ Hush() }

type col struct{}

func (col) Scan() int { return 0 }
func (col) Hush()     {}

var _ Quiet = col{}

func Run(s Substrate) int { return s.Scan() }

type ints []int

func (h ints) Len() int           { return len(h) }
func (h ints) Less(i, j int) bool { return h[i] < h[j] }
func (h ints) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ints) Push(x any)        { *h = append(*h, x.(int)) }
func (h *ints) Pop() any          { return nil }

type gen[E any] struct{ items []E }

func (g *gen[E]) Len() int           { return len(g.items) }
func (g *gen[E]) Less(i, j int) bool { return false }
func (g *gen[E]) Swap(i, j int)      {}
func (g *gen[E]) Push(x any)         { g.items = append(g.items, x.(E)) }
func (g *gen[E]) Pop() any           { return nil }
func (g *gen[E]) init()              { heap.Init(g) }

func Init() {
	h := ints{}
	heap.Init(&h)
	(&gen[int]{}).init()
	Run(col{})
	v := T{}
	v.Used()
	f := v.Valued
	f()
	v.Promoted()
	v.Embedded()
}
`)
	write("internal/a/a_test.go", `package a

func use() { T{}.TestOnly(); T{}.Oracle() }
`)
	write("api.go", `package metainsight

import "metainsight/internal/a"

type T = a.T

func run() { a.Init() }
`)
	write("api_test.go", `package metainsight_test

import "metainsight"

func use() { metainsight.T{}.Aliased() }
`)
	allow := map[string]string{
		"a.T.Oracle":   "checked against production",
		"a.T.Promoted": "was test-only",
		"a.T.Gone":     "deleted since",
		"a.Top":        "a top-level entry, not this gate's",
	}
	m, err := loadTyped(root)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := testOnlyMethods(m, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"T.TestOnly", "T.Aliased", "T.Promoted", "col.Hush", "a.T.Gone"}
	if len(findings) != len(want) {
		t.Fatalf("findings = %q, want one each for %v", findings, want)
	}
	for i, name := range want {
		if !strings.Contains(findings[i], " "+name+" ") {
			t.Errorf("finding %d = %q, want %s", i, findings[i], name)
		}
	}
}

// typedModule is a module type-checked package by package: its production
// packages once each, with their uses and selections in one types.Info, and
// the standard library through go/importer's source importer.
type typedModule struct {
	root  string
	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info
	prod  map[string]*types.Package // import path → package, non-test files only
	paths []string                  // the module's import paths, in walk order
	// tested holds the keys (objectKey, methodKey) of the package-level
	// names and the methods that test files use.
	tested map[string]bool
	errs   []error
}

// loaded caches loadTyped per module root: both gates read the repository.
var loaded = map[string]*typedModule{}

// loadTyped type-checks every package of the module under root, then its
// test files. A type error in a non-test file is an error.
func loadTyped(root string) (*typedModule, error) {
	if m, ok := loaded[root]; ok {
		return m, nil
	}
	m := newTypedModule(root)
	paths, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	m.paths = paths
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	if len(m.errs) > 0 {
		return nil, m.errs[0]
	}
	if m.tested, err = m.testUses(); err != nil {
		return nil, err
	}
	loaded[root] = m
	return m, nil
}

// stdFiles and stdImporter are shared by every typedModule, so the standard
// library is type-checked from source once per test binary.
var (
	stdFiles    = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFiles, "source", nil).(types.ImporterFrom)
)

func newTypedModule(root string) *typedModule {
	return &typedModule{
		root: root,
		fset: stdFiles,
		std:  stdImporter,
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
		prod: map[string]*types.Package{},
	}
}

// dir maps a module import path to its directory.
func (m *typedModule) dir(path string) string {
	return filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
}

// Import checks a module package from its non-test files on first use and
// hands every other path to the source importer.
func (m *typedModule) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.ImportFrom(path, m.root, 0)
	}
	if p, ok := m.prod[path]; ok {
		return p, nil
	}
	files, err := m.parseDir(m.dir(path), func(f *ast.File, test bool) bool { return !test })
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err) }}
	p, _ := conf.Check(path, m.fset, files, m.info)
	m.prod[path] = p
	return p, nil
}

// parseDir parses the Go files of dir that keep accepts.
func (m *typedModule) parseDir(dir string, keep func(f *ast.File, test bool) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if keep(f, strings.HasSuffix(e.Name(), "_test.go")) {
			files = append(files, f)
		}
	}
	return files, nil
}

// packageDirs lists the import paths of the module's directories that hold
// Go files, skipping those the go tool ignores.
func packageDirs(root string) ([]string, error) {
	var paths []string
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := modulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		if !seen[ip] {
			seen[ip] = true
			paths = append(paths, ip)
		}
		return nil
	})
	return paths, err
}

// objectKey names a package-level object for testOnly: "pkg.Name", pkg as
// shortPath gives it. ok is false for objects declared anywhere else and for
// anything not at package level.
func objectKey(obj types.Object) (key string, ok bool) {
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	short, ok := shortPath(obj.Pkg().Path())
	return short + "." + obj.Name(), ok
}

// shortPath is a module package's name in testOnly keys: its path below
// internal/, or metainsight for the root package.
func shortPath(path string) (short string, ok bool) {
	if path == modulePath {
		return modulePath, true
	}
	return strings.CutPrefix(path, modulePath+"/internal/")
}

// methodKey names a method for testOnly: "pkg.Type.Method", pkg as
// shortPath gives it. ok is false for methods declared anywhere else and for interface
// methods.
func methodKey(fn *types.Func) (key string, ok bool) {
	fn = fn.Origin()
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || fn.Pkg() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || types.IsInterface(named) {
		return "", false
	}
	short, ok := shortPath(fn.Pkg().Path())
	return short + "." + named.Origin().Obj().Name() + "." + fn.Name(), ok
}

// testOnlyMethods returns the method gate's findings: one per method declared
// in a non-test file under root/internal or in the root package that is not
// live and that allow does not name, or that allow names but is live or no
// test selects; then one per method-shaped allow entry ("pkg.Type.Method")
// that names no such method. A method is live when
//   - non-test code calls it or takes its value (directly, as a method
//     expression, or promoted through an embedded field);
//   - it implements a method of an interface that non-test code calls
//     through: a module or standard-library interface whose method non-test
//     code selects, or a standard-library interface that a standard-library
//     function, field or type non-test code uses is declared with (so
//     heap.Interface counts once non-test code calls heap.Push);
//   - it implements an interface the standard library calls by reflection
//     (fmt.Stringer, error, json.Marshaler and json.Unmarshaler, and their
//     encoding.Text counterparts); or
//   - it is an exported method of a type the root package re-exports by an
//     alias, and README.md spells a call to it (".Method(").
func testOnlyMethods(m *typedModule, allow map[string]string) ([]string, error) {
	root := m.root

	// Declared methods, in file and line order.
	type method struct {
		key  string
		fn   *types.Func
		file string
		line int
	}
	var methods []method
	var named []*types.Named // every named non-interface type of the module
	for _, p := range m.prod {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			named = append(named, n)
			for i := 0; i < n.NumMethods(); i++ {
				fn := n.Method(i)
				if key, ok := methodKey(fn); ok {
					pos := m.fset.Position(fn.Pos())
					methods = append(methods, method{key, fn, pos.Filename, pos.Line})
				}
			}
		}
	}
	sort.Slice(methods, func(i, j int) bool {
		if methods[i].file != methods[j].file {
			return methods[i].file < methods[j].file
		}
		return methods[i].line < methods[j].line
	})

	live := map[string]bool{}
	// The interfaces whose methods are called: by name, per interface.
	called := map[*types.Interface]map[string]bool{}
	callAll := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			return
		}
		if called[iface] == nil {
			called[iface] = map[string]bool{}
		}
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface][iface.Method(i).Name()] = true
		}
	}
	for _, sel := range m.info.Selections {
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if key, ok := methodKey(fn); ok {
			live[key] = true
		} else if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
			if called[iface] == nil {
				called[iface] = map[string]bool{}
			}
			called[iface][fn.Name()] = true
		}
	}
	// Standard-library interfaces the standard library calls through: those
	// in the declarations of the standard-library names non-test code uses.
	for _, obj := range m.info.Uses {
		if obj.Pkg() == nil || obj.Pkg().Path() == modulePath || strings.HasPrefix(obj.Pkg().Path(), modulePath+"/") {
			continue
		}
		switch obj := obj.(type) {
		case *types.TypeName:
			callAll(obj.Type())
		case *types.Var:
			callAll(obj.Type())
		case *types.Func:
			sig := obj.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				t := sig.Params().At(i).Type()
				if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
					t = s.Elem()
				}
				callAll(t)
			}
		}
	}
	// Interfaces the standard library calls by reflection.
	for _, ref := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
		{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"}} {
		p, err := m.std.ImportFrom(ref[0], root, 0)
		if err != nil {
			return nil, err
		}
		callAll(p.Scope().Lookup(ref[1]).Type())
	}
	callAll(types.Universe.Lookup("error").Type())
	for _, n := range named {
		var inst types.Type = n
		if tps := n.TypeParams(); tps.Len() > 0 { // instantiate at its own parameters
			args := make([]types.Type, tps.Len())
			for i := range args {
				args[i] = tps.At(i)
			}
			var err error
			if inst, err = types.Instantiate(nil, n, args, false); err != nil {
				return nil, err
			}
		}
		for iface, names := range called {
			t := inst
			if !types.Implements(t, iface) {
				if t = types.NewPointer(inst); !types.Implements(t, iface) {
					continue
				}
			}
			for name := range names {
				obj, _, _ := types.LookupFieldOrMethod(t, true, n.Obj().Pkg(), name)
				if fn, ok := obj.(*types.Func); ok {
					if key, ok := methodKey(fn); ok {
						live[key] = true
					}
				}
			}
		}
	}
	// Exported methods of the root package's aliases that README.md calls.
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if rootPkg := m.prod[modulePath]; rootPkg != nil {
		scope := rootPkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() || !tn.Exported() {
				continue
			}
			n, ok := types.Unalias(tn.Type()).(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				fn := n.Method(i)
				if key, ok := methodKey(fn); ok && fn.Exported() && strings.Contains(string(readme), "."+fn.Name()+"(") {
					live[key] = true
				}
			}
		}
	}

	var findings []string
	declared := map[string]bool{}
	for _, d := range methods {
		declared[d.key] = true
		var problem string
		_, listed := allow[d.key]
		switch {
		case listed && live[d.key]:
			problem = "is live; drop it from testOnly"
		case !live[d.key] && !m.tested[d.key]:
			problem = "is called nowhere in the module; delete it"
		case !listed && !live[d.key]:
			problem = "is reached only by tests; delete it, move it into a _test.go file, or name in testOnly the test that checks production code against it"
		default:
			continue
		}
		rel, _ := filepath.Rel(root, d.file)
		recv := d.key[strings.Index(d.key, ".")+1:]
		findings = append(findings, rel+":"+strconv.Itoa(d.line)+": method "+recv+" "+problem)
	}
	var stale []string
	for key := range allow {
		if strings.Count(key, ".") == 2 && !declared[key] {
			stale = append(stale, "testOnly entry "+key+" names no method declared under internal/ or in the root package; drop it")
		}
	}
	sort.Strings(stale)
	return append(findings, stale...), nil
}

// testUses returns the keys of the package-level names and the methods the
// module's test files use. Each package's in-package tests are checked with
// its non-test files, its external tests against that checked package; type
// errors are ignored, since an external test's imports see the production
// package.
func (m *typedModule) testUses() (map[string]bool, error) {
	used := map[string]bool{}
	inTest := func(pos token.Pos) bool { return strings.HasSuffix(m.fset.Position(pos).Filename, "_test.go") }
	for _, path := range m.paths {
		name := m.prod[path].Name()
		var internal, external []*ast.File
		hasTests := false
		if _, err := m.parseDir(m.dir(path), func(f *ast.File, test bool) bool {
			switch {
			case f.Name.Name == name:
				internal = append(internal, f)
			case test && f.Name.Name == name+"_test":
				external = append(external, f)
			default:
				return false
			}
			hasTests = hasTests || test
			return false
		}); err != nil {
			return nil, err
		}
		if !hasTests {
			continue
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: m, Error: func(error) {}}
		withTests, _ := conf.Check(path, m.fset, internal, info)
		conf.Importer = importerFunc(func(p string) (*types.Package, error) {
			if p == path {
				return withTests, nil
			}
			return m.Import(p)
		})
		conf.Check(path+"_test", m.fset, external, info)
		for id, obj := range info.Uses {
			if key, ok := objectKey(obj); ok && inTest(id.Pos()) {
				used[key] = true
			}
		}
		for sel, s := range info.Selections {
			if fn, ok := s.Obj().(*types.Func); ok && inTest(sel.Pos()) {
				if key, ok := methodKey(fn); ok {
					used[key] = true
				}
			}
		}
	}
	return used, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
