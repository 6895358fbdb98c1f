package apicheck

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// documents are the files, relative to the module root, whose backticked
// names and paths must resolve in the tree.
var documents = []string{"DESIGN.md", "README.md"}

// migrationHeading opens README's table of retired names: its rows may name
// what no longer exists, and only they may.
const migrationHeading = "Migrating from the Analyzer API"

// TestDocReferencesResolve fails on every backticked span in DESIGN.md and
// README.md that names a repository path that does not exist, or a Go
// identifier (pkg.Name, Name.Member or pkg.Name.Member) that the module does
// not declare. A deletion cannot leave the documents behind.
func TestDocReferencesResolve(t *testing.T) {
	root := repoRoot(t)
	findings, err := staleDocReferences(root, documents)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDocReferenceCheckFires proves the check on a synthetic module: a
// document naming declared, stale, standard-library and retired names, and
// existing and missing paths.
func TestDocReferenceCheckFires(t *testing.T) {
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
	write("api.go", `package metainsight

import "metainsight/internal/engine"

// Engine is the engine type, re-exported.
type Engine = engine.Engine

// Request is one call's settings.
type Request struct{ Budget Budget }

// Budget bounds one call.
type Budget struct{ Cost float64 }
`)
	write("internal/engine/engine.go", `package engine

import "sync"

// Engine scans.
type Engine struct {
	mu  sync.Mutex
	Cfg Config
}

// Config configures an Engine.
type Config struct{ Workers int }

// New builds an Engine.
func New() *Engine { return nil }

// Scan scans.
func (e *Engine) Scan() {}
`)
	write("DOC.md", "# Doc\n\n"+
		"Declared: `engine.New`, `engine.Engine.Scan`, `Engine.Scan()`, `metainsight.Request`,\n"+
		"`Request.Budget.Cost`, `engine.Config.Workers`, `Engine.Cfg.Workers`.\n"+
		"Skipped: `engine.physical.scans`, `sync.Mutex`, `New`, `go test ./...`, `/v1/analyze`.\n"+
		"Paths: `internal/engine/engine.go`, `internal/engine/`, `engine.go`, `sync`.\n"+
		"Stale: `engine.Old`, `Engine.Gone`, `Request.Budget.Time`, `internal/gone.go`, `gone_test.go`.\n"+
		"\n```go\nvar _ = engine.InAFence\n```\n\n"+
		"### "+migrationHeading+"\n\n"+
		"| Removed | Now |\n|---|---|\n| `engine.Retired` | `engine.New` |\n\n"+
		"After the table: `engine.Retired`.\n")
	findings, err := staleDocReferences(root, []string{"DOC.md"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"engine.Old", "Engine.Gone", "Request.Budget.Time", "internal/gone.go", "gone_test.go", "engine.Retired"}
	if len(findings) != len(want) {
		t.Fatalf("findings = %q, want one each for %v", findings, want)
	}
	for i, span := range want {
		if !strings.Contains(findings[i], "`"+span+"`") {
			t.Errorf("finding %d = %q, want %s", i, findings[i], span)
		}
	}
}

var (
	spanRE  = regexp.MustCompile("`([^`\n]+)`")
	identRE = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)((?:\.[A-Za-z_][A-Za-z0-9_]*){1,2})(?:\([^()]*\))?$`)
	pathRE  = regexp.MustCompile(`^[A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)*/?$`)
)

// staleDocReferences returns one finding per backticked span of the
// documents (paths relative to root) that does not resolve, in document and
// line order. Fenced code blocks are skipped, and so are the rows of the
// migration table. A span resolves when it is
//   - a path (it has a "/", or ends in .go, .md or .sh) that exists under
//     root, relative to root or, for a bare file name, anywhere in the tree,
//     or that the module imports;
//   - an identifier whose first dot is followed by an upper-case letter and
//     whose first element is a package the module imports from outside it,
//     or that the module declares: pkg.Name a top-level name of a module
//     package of that name, Name.Member a field or method of a type Name,
//     and a third element a member of the second's type;
//
// and every other span (a metric name, a command, a URL) is not checked.
func staleDocReferences(root string, docs []string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, doc := range docs {
		f, err := os.Open(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		fenced, migration := false, false
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			switch {
			case strings.HasPrefix(strings.TrimSpace(text), "```"):
				fenced = !fenced
				continue
			case fenced:
				continue
			case strings.HasPrefix(text, "#"):
				migration = strings.Contains(text, migrationHeading)
			case migration && strings.HasPrefix(text, "|"):
				continue
			}
			for _, sm := range spanRE.FindAllStringSubmatch(text, -1) {
				if !m.resolves(sm[1]) {
					findings = append(findings, doc+":"+strconv.Itoa(line)+": `"+sm[1]+"` names nothing in the tree")
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return findings, nil
}

// module is what the documents may name: its files, its packages' top-level
// names, its types' members, and the packages it imports.
type module struct {
	root     string
	files    map[string]bool            // base names of every file
	imports  map[string]bool            // import paths of outside packages
	external map[string]bool            // their package names
	pkgs     map[string]map[string]bool // package name → top-level names
	members  map[string]map[string]string
	// members maps a type name, over every package that declares one of
	// that name, to its fields and methods, each to the type name of the
	// field or of the method's first result ("" when it has none).
	embeds map[string][]string // type name → embedded (or aliased) type names
}

func loadModule(root string) (*module, error) {
	m := &module{root: root, files: map[string]bool{}, imports: map[string]bool{}, external: map[string]bool{},
		pkgs: map[string]map[string]bool{}, members: map[string]map[string]string{}, embeds: map[string][]string{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		m.files[d.Name()] = true
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.addFile(f)
		return nil
	})
	return m, err
}

func (m *module) addFile(f *ast.File) {
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		if ip != modulePath && !strings.HasPrefix(ip, modulePath+"/") {
			m.imports[ip] = true
			m.external[ip[strings.LastIndex(ip, "/")+1:]] = true
		}
	}
	names := m.pkgs[f.Name.Name]
	if names == nil {
		names = map[string]bool{}
		m.pkgs[f.Name.Name] = names
	}
	for _, id := range topLevelNames(f) {
		names[id.Name] = true
	}
	member := func(typ, name, of string) {
		if m.members[typ] == nil {
			m.members[typ] = map[string]string{}
		}
		m.members[typ][name] = of
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				continue
			}
			result := ""
			if d.Type.Results != nil && len(d.Type.Results.List) > 0 {
				result = typeName(d.Type.Results.List[0].Type)
			}
			member(typeName(d.Recv.List[0].Type), d.Name.Name, result)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if ts.Assign.IsValid() { // an alias has its target's members
					m.embeds[ts.Name.Name] = append(m.embeds[ts.Name.Name], typeName(ts.Type))
					continue
				}
				var fields []*ast.Field
				switch t := ts.Type.(type) {
				case *ast.StructType:
					fields = t.Fields.List
				case *ast.InterfaceType:
					fields = t.Methods.List
				}
				for _, fd := range fields {
					if len(fd.Names) == 0 {
						m.embeds[ts.Name.Name] = append(m.embeds[ts.Name.Name], typeName(fd.Type))
						member(ts.Name.Name, typeName(fd.Type), typeName(fd.Type))
					}
					for _, id := range fd.Names {
						member(ts.Name.Name, id.Name, typeName(fd.Type))
					}
				}
			}
		}
	}
}

// typeName is the name a type expression ends in: T for T, *T, []T, pkg.T
// or T[K, V]; "" for anything else.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.ArrayType:
		return typeName(t.Elt)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	}
	return ""
}

// member looks name up among typ's fields and methods, its embedded types'
// and its alias target's, and returns the member's type name.
func (m *module) member(typ, name string) (string, bool) {
	seen := map[string]bool{}
	var find func(typ string) (string, bool)
	find = func(typ string) (string, bool) {
		if typ == "" || seen[typ] {
			return "", false
		}
		seen[typ] = true
		if of, ok := m.members[typ][name]; ok {
			return of, true
		}
		for _, e := range m.embeds[typ] {
			if of, ok := find(e); ok {
				return of, true
			}
		}
		return "", false
	}
	return find(typ)
}

// resolves reports whether span names something in the module, or is no
// name or path the check covers.
func (m *module) resolves(span string) bool {
	if strings.HasSuffix(span, ".go") || strings.HasSuffix(span, ".md") || strings.HasSuffix(span, ".sh") ||
		strings.Contains(span, "/") {
		if !pathRE.MatchString(span) || strings.Contains(span, "..") {
			return true
		}
		if !strings.Contains(span, "/") {
			return m.files[span]
		}
		_, err := os.Stat(filepath.Join(m.root, filepath.FromSlash(span)))
		return err == nil || m.imports[span]
	}
	sm := identRE.FindStringSubmatch(span)
	if sm == nil {
		return true
	}
	first, rest := sm[1], strings.Split(sm[2][1:], ".")
	if c := rest[0][0]; c < 'A' || c > 'Z' || m.external[first] {
		return true
	}
	typ := first
	if names, ok := m.pkgs[first]; ok {
		if !names[rest[0]] {
			return false
		}
		typ, rest = rest[0], rest[1:]
	}
	for _, name := range rest {
		of, ok := m.member(typ, name)
		if !ok {
			return false
		}
		typ = of
	}
	return true
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

// TestCommandDocsNameEveryFlag fails on every flag a command under cmd/
// registers that the command's package doc comment does not name as -flag,
// and on every -flag the doc's indented usage synopsis names that the
// command does not register, so the usage a reader of the doc sees cannot
// drift from the one the command parses in either direction.
func TestCommandDocsNameEveryFlag(t *testing.T) {
	findings, err := flagDocFindings(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestFlagDocCheckFires proves the check on a synthetic command: a flag its
// doc names, one whose name is only a prefix of a documented flag, one whose
// name only ends a hyphenated word of the doc, one registered through a
// FlagSet's Var, a NewFlagSet call that registers nothing, bare calls that
// are not selector calls at all; and in the doc, a synopsis flag nothing
// registers, -h, which the flag package registers itself, and an
// unregistered -flag in prose, which the synopsis check does not read.
func TestFlagDocCheckFires(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cmd", "tool")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `// Command tool does things.
//
//	tool -a [-long-name x] [-gone n] [-h] — a top-k tool
//
// -h lists the flags; -prose is not part of the synopsis.
package main

import "flag"

func main() {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	_ = flag.Bool("a", false, "documented")
	_ = fs.String("long", "", "a prefix of a documented flag")
	var x flag.Value
	fs.Var(x, "b", "registered through Var")
	_ = fs.String("long-name", "", "documented")
	_ = fs.Int("k", 0, "only the end of top-k")
	run(len("x"))
}

func run(int) {}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := flagDocFindings(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-long", "-b", "-k", "-gone"}
	if len(findings) != len(want) {
		t.Fatalf("findings = %q, want one each for %v", findings, want)
	}
	for i, name := range want {
		if !strings.Contains(findings[i], " "+name+" ") {
			t.Errorf("finding %d = %q, want %s", i, findings[i], name)
		}
	}
}

// flagFuncs are the flag package's functions and FlagSet methods that
// register a flag; the flag's name is the call's first string literal.
var flagFuncs = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// synopsisFlag matches a -name in a usage synopsis: a dash after the start
// of the line, a blank, [ or (, then a letter.
var synopsisFlag = regexp.MustCompile(`(?:^|[\s\[(])-([A-Za-z][A-Za-z0-9-]*)`)

// flagDocFindings returns one finding, in file and line order, per flag
// registered in a non-test file of a command directory root/cmd/* whose
// name its package doc comment does not contain as -name (neither preceded
// nor followed by a letter, a digit or a dash); then one, in doc order, per
// -name on an indented line of that doc comment (the usage synopsis) that no
// flag registers, -h aside.
func flagDocFindings(root string) ([]string, error) {
	dirs, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			var doc strings.Builder
			var files []string
			for name := range pkg.Files {
				files = append(files, name)
			}
			sort.Strings(files)
			for _, name := range files {
				if f := pkg.Files[name]; f.Doc != nil {
					doc.WriteString(f.Doc.Text())
				}
			}
			registered := map[string]bool{"h": true}
			for _, name := range files {
				ast.Inspect(pkg.Files[name], func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if _, recv := sel.X.(*ast.Ident); !recv || !flagFuncs[sel.Sel.Name] {
						return true
					}
					for _, arg := range call.Args {
						lit, ok := arg.(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						flag, err := strconv.Unquote(lit.Value)
						registered[flag] = true
						named := regexp.MustCompile(`(^|[^A-Za-z0-9-])-` + regexp.QuoteMeta(flag) + `([^A-Za-z0-9-]|$)`)
						if err == nil && !named.MatchString(doc.String()) {
							rel, _ := filepath.Rel(root, name)
							findings = append(findings, rel+":"+strconv.Itoa(fset.Position(lit.Pos()).Line)+
								": flag -"+flag+" is not named in the command's package doc comment")
						}
						break
					}
					return true
				})
			}
			rel, _ := filepath.Rel(root, dir)
			for _, line := range strings.Split(doc.String(), "\n") {
				if !strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, " ") {
					continue
				}
				for _, m := range synopsisFlag.FindAllStringSubmatch(line, -1) {
					if !registered[m[1]] {
						findings = append(findings, rel+": flag -"+m[1]+
							" is named in the command's usage synopsis but no flag registers it")
					}
				}
			}
		}
	}
	return findings, nil
}
