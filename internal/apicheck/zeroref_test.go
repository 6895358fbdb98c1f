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
	"reflect"
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
	"core.MeasureHDS":              "Equation 5 as stated: TestUnitsCarryHandlesThatAgreeWithTheirValues (miner) checks the HDSs the miner's handles build against it",
	"core.BreakdownHDS":            "Equation 6 as stated: TestUnitsCarryHandlesThatAgreeWithTheirValues (miner) checks the HDSs the miner's handles build against it",
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

// testOnlyFields names the exported struct fields under internal/ or in the
// root package that no non-test code writes outside its package's defaults
// constructors (see unwrittenFields), each with why it stays a field. A key is
// "pkg.Type.Field", pkg as in testOnly. A setting only a defaults constructor
// writes has one value in use, so it is a constant; these earn their place by
// a test that sets them, or by a reader that needs the field to exist.
var testOnlyFields = map[string]string{
	"experiments.Table4Config.K":                "TestTable4 runs Table 4 smaller than the paper's configuration",
	"experiments.Table4Config.NaivePool":        "TestTable4 runs Table 4 smaller than the paper's configuration",
	"experiments.Table4Config.MaxGroup":         "TestTable4 runs Table 4 smaller than the paper's configuration",
	"engine.Config.Substrate":                   "TestReferenceSubstrateStatsIdentity (miner) and TestPlannedRowCostMatchesReference (engine) mine and cost over the reference oracle through it, and the stall tests hold scans back through it",
	"miner.Config.EnableBoundPruning":           "the bound-pruning suite and TestMinerMatchesBruteForceOracle turn it off to prove the cuts change no result",
	"miner.Config.MaxBreakdownCardinality":      "TestMinerMatchesBruteForceOracle's capped case lowers the cap to 4 to check it against the oracle",
	"miner.Config.MinImpact":                    "the bound-pruning suite, TestMinerMatchesBruteForceOracle's threshold cases and miner_test's MinImpact 0.99 run set the Pruning 2 threshold",
	"miner.Config.MinSubspaceImpact":            "the bound-pruning suite and TestMinerMatchesBruteForceOracle's threshold cases set the frontier threshold",
	"miner.Stats.Evictions":                     "reserved and always zero; the benchmark reads it",
	"serve.AdmissionConfig.ExpectedServiceTime": "the admission tests seed the service-time estimate",
}

// TestNoFieldsOnlyDefaultsWrite gates struct fields the way the other gates
// gate names and methods: every exported field declared in a non-test file
// under internal/ or in the root package must be written by non-test code
// outside its package's defaults constructors, be exempt as a wire field, or
// have a testOnlyFields entry.
func TestNoFieldsOnlyDefaultsWrite(t *testing.T) {
	m, err := loadTyped(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := unwrittenFields(m, testOnlyFields)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestFieldGateFires proves the field gate on a synthetic module. It must
// report a field only a DefaultConfig writes, one only tests write, an
// allowlisted field that non-test code writes, one that non-test code only
// copies from another value's same field (a defaults fill) and an allowlist
// entry naming no field. It must stay silent on fields written by assignment, through a
// nested selector, through an index, by taking their address, by a pointer
// method, in keyed and positional literals, on a field with a JSON tag, on
// an embedded field of a decoded wire struct, on a root-package field
// README.md sets and on an allowlisted field a test sets.
func TestFieldGateFires(t *testing.T) {
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
	write("README.md", "Set `Request{TopK: 10}` for ten suggestions.\n")
	write("internal/a/a.go", `package a

import "encoding/json"

type Budget struct{ Cost int }

type Config struct {
	Alpha    float64 // only DefaultConfig writes it
	TestSet  int     // only tests write it
	Budget   Budget  // written through c.Budget.Cost
	Assigned int
	Oracle   int // allowlisted, a test sets it
	Promoted int // allowlisted, but production sets it
	Copied   int // only copied from DefaultConfig's
}

func DefaultConfig() Config { return Config{Alpha: 0.05} }

type Result struct {
	Q3    []float64
	Ptr   int
	Count counter
	Wire  string `+"`json:\"wire\"`"+`
}

type counter struct{ n int }

func (c *counter) Add() { c.n++ }

type Pair struct{ Left, Right int }

type Params struct {
	TopK int `+"`json:\"top_k\"`"+`
}

type Spec struct {
	Params
	Name string `+"`json:\"name\"`"+`
}

func Run(data []byte) (Config, Result, Pair, Spec) {
	c := DefaultConfig()
	if def := DefaultConfig(); c.Copied == 0 {
		c.Copied = def.Copied
	}
	c.Budget.Cost = 3
	c.Assigned++
	c.Promoted = 1
	var res Result
	res.Q3 = make([]float64, 1)
	for i := range res.Q3 {
		res.Q3[i] = 1
	}
	p := &res.Ptr
	*p = 2
	res.Count.Add()
	var s Spec
	_ = json.Unmarshal(data, &s)
	return c, res, Pair{1, 2}, s
}
`)
	write("internal/a/a_test.go", `package a

var _ = Config{TestSet: 1, Oracle: 2}
`)
	write("api.go", `package metainsight

import "metainsight/internal/a"

type Request struct {
	TopK   int // README sets it
	Hidden int // nothing sets it
}

func run() int { a.Run(nil); return Request{}.TopK + Request{}.Hidden }
`)
	allow := map[string]string{
		"a.Config.Oracle":   "a test sets it",
		"a.Config.Promoted": "was test-only",
		"a.Config.Gone":     "deleted since",
	}
	m, err := loadTyped(root)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := unwrittenFields(m, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Request.Hidden", "Config.Alpha", "Config.TestSet", "Config.Promoted", "Config.Copied", "a.Config.Gone"}
	if len(findings) != len(want) {
		t.Fatalf("findings = %q, want one each for %v", findings, want)
	}
	for i, name := range want {
		if !strings.Contains(findings[i], " "+name+" ") {
			t.Errorf("finding %d = %q, want %s", i, findings[i], name)
		}
	}
}

// unwrittenFields returns the field gate's findings: one, in file and line
// order, per exported field of a named struct type declared in a non-test
// file under root/internal or in the root package that is not live and that
// allow does not name, or that allow names but is live or nothing references;
// then one per allow entry that names no such field. A field is live when
// non-test code writes it (see fieldWrites) outside its own package's
// defaults constructors (functions and methods named Default* or
// withDefaults), or, for a field of the root package or of a type the root
// package re-exports by an alias, when README.md sets it ("Name:" or
// ".Name ="). Wire fields are exempt: those with a JSON tag, and the
// embedded fields of a struct whose fields carry JSON tags, which
// encoding/json decodes in place.
func unwrittenFields(m *typedModule, allow map[string]string) ([]string, error) {
	readme, err := os.ReadFile(filepath.Join(m.root, "README.md"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	readmeSets := func(name string) bool {
		return strings.Contains(string(readme), name+":") || strings.Contains(string(readme), "."+name+" =")
	}
	aliased := map[*types.Named]bool{}
	if rootPkg := m.prod[modulePath]; rootPkg != nil {
		for _, name := range rootPkg.Scope().Names() {
			if tn, ok := rootPkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() && tn.Exported() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[n] = true
				}
			}
		}
	}

	// Declared fields, keyed by position so that a field seen through a
	// test's own type-check of its package resolves too.
	type field struct {
		key, name, file string
		line            int
		live            bool // written by non-test code, or set by README.md
		referenced      bool // used anywhere in the module
		testWritten     bool
	}
	var fields []*field
	byPos := map[string]*field{} // token.Position.String() → its field
	for path, p := range m.prod {
		short, ok := shortPath(path)
		if !ok {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			st, ok := n.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			wire := false
			for i := 0; i < st.NumFields(); i++ {
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					wire = true
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !v.Exported() || tagged || (wire && v.Embedded()) {
					continue
				}
				pos := m.fset.Position(v.Pos())
				f := &field{
					key: short + "." + name + "." + v.Name(), name: name + "." + v.Name(),
					file: pos.Filename, line: pos.Line,
					live: (path == modulePath || aliased[n]) && readmeSets(v.Name()),
				}
				fields = append(fields, f)
				byPos[pos.String()] = f
			}
		}
	}
	fieldOf := func(v *types.Var) *field { return byPos[m.fset.Position(v.Origin().Pos()).String()] }

	for _, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if f := fieldOf(v); f != nil {
				f.referenced = true
			}
		}
	}
	for path, files := range m.files {
		for _, file := range files {
			fieldWrites(file, m.info, func(v *types.Var, fn *ast.FuncDecl) {
				defaults := fn != nil && (strings.HasPrefix(fn.Name.Name, "Default") || fn.Name.Name == "withDefaults")
				if f := fieldOf(v); f != nil && (!defaults || v.Pkg().Path() != path) {
					f.live = true
				}
			})
		}
	}
	for pos := range m.testWrites {
		if f := byPos[pos]; f != nil {
			f.testWritten = true
		}
	}
	for pos := range m.tested {
		if f := byPos[pos]; f != nil {
			f.referenced = true
		}
	}

	sort.Slice(fields, func(i, j int) bool {
		if fields[i].file != fields[j].file {
			return fields[i].file < fields[j].file
		}
		return fields[i].line < fields[j].line || fields[i].line == fields[j].line && fields[i].key < fields[j].key
	})
	var findings []string
	declared := map[string]bool{}
	for _, f := range fields {
		declared[f.key] = true
		var problem string
		_, listed := allow[f.key]
		switch {
		case listed && f.live:
			problem = "is written by non-test code; drop it from testOnlyFields"
		case listed && !f.referenced:
			problem = "is referenced nowhere in the module; delete it"
		case !listed && !f.live && f.testWritten:
			problem = "is written only by tests and defaults constructors; make it a constant, or name in testOnlyFields the test that sets it"
		case !listed && !f.live:
			problem = "is written by nothing but defaults constructors; make it a constant or delete it"
		default:
			continue
		}
		rel, _ := filepath.Rel(m.root, f.file)
		findings = append(findings, rel+":"+strconv.Itoa(f.line)+": field "+f.name+" "+problem)
	}
	var stale []string
	for key := range allow {
		if !declared[key] {
			stale = append(stale, "testOnlyFields entry "+key+" names no exported field declared under internal/ or in the root package; drop it")
		}
	}
	sort.Strings(stale)
	return append(findings, stale...), nil
}

// fieldWrites calls visit for every struct field f writes, with the function
// declaration the write sits in (nil at package level). A write assigns the
// field (plain, compound or as a range variable), increments or decrements
// it, takes its address (with & or by calling a pointer method on it), or
// sets it in a keyed or positional struct literal. Writing a field of a
// field, or an element of a field's slice, array or map, writes every field
// on the way: c.Budget.Cost = 1 writes Budget and Cost. A plain assignment
// from the same field of another value (cfg.F = def.F, a defaults fill) is
// no write: it adds no value the field did not already hold.
func fieldWrites(f *ast.File, info *types.Info, visit func(v *types.Var, fn *ast.FuncDecl)) {
	for _, d := range f.Decls {
		fn, _ := d.(*ast.FuncDecl)
		lvalue := func(e ast.Expr) {
			for e != nil {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					sel := info.Selections[x]
					if sel == nil || sel.Kind() != types.FieldVal {
						return
					}
					visit(sel.Obj().(*types.Var), fn)
					e = x.X
				default:
					return
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && sameField(info, l, n.Rhs[i]) {
						continue // a.F = b.F copies a value the field already had somewhere
					}
					lvalue(l)
				}
			case *ast.IncDecStmt:
				lvalue(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					lvalue(n.Key)
					lvalue(n.Value)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lvalue(n.X)
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					break
				}
				if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					if _, ptr := s.Recv().Underlying().(*types.Pointer); ptrRecv && !ptr {
						lvalue(sel.X)
					}
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if t == nil {
					break
				}
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
								visit(v, fn)
							}
						}
					} else if i < st.NumFields() {
						visit(st.Field(i), fn)
					}
				}
			}
			return true
		})
	}
}

// sameField reports whether l and r both select the same struct field, as in
// a.F = b.F.
func sameField(info *types.Info, l, r ast.Expr) bool {
	field := func(e ast.Expr) types.Object {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return nil
	}
	f := field(l)
	return f != nil && f == field(r)
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
	files map[string][]*ast.File    // import path → its non-test files
	paths []string                  // the module's import paths, in walk order
	// tested holds the keys (objectKey, methodKey) of the package-level
	// names and the methods that test files use, and the positions
	// (token.Position.String) of the struct fields they use.
	tested map[string]bool
	// testWrites holds the positions of the struct fields test files write
	// (see fieldWrites).
	testWrites map[string]bool
	errs       []error
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
	if m.tested, m.testWrites, err = m.testUses(); err != nil {
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
		root:  root,
		fset:  stdFiles,
		std:   stdImporter,
		info:  newInfo(),
		prod:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
}

// newInfo records what the gates read: uses, selections and the types of
// composite literals.
func newInfo() *types.Info {
	return &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
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
	m.files[path] = files
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
// module's test files use, with the positions of the struct fields they use,
// and the positions of the struct fields they write. Each package's
// in-package tests are checked with its non-test files, its external tests
// against that checked package; type errors are ignored, since an external
// test's imports see the production package.
func (m *typedModule) testUses() (used, written map[string]bool, err error) {
	used, written = map[string]bool{}, map[string]bool{}
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
			return nil, nil, err
		}
		if !hasTests {
			continue
		}
		info := newInfo()
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
			if !inTest(id.Pos()) {
				continue
			}
			if key, ok := objectKey(obj); ok {
				used[key] = true
			} else if v, ok := obj.(*types.Var); ok && v.IsField() {
				used[m.fset.Position(v.Origin().Pos()).String()] = true
			}
		}
		for _, f := range append(internal, external...) {
			if inTest(f.Pos()) {
				fieldWrites(f, info, func(v *types.Var, _ *ast.FuncDecl) {
					written[m.fset.Position(v.Origin().Pos()).String()] = true
				})
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
	return used, written, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
