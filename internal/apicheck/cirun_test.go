package apicheck

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// workflow is the CI workflow, relative to the module root, whose go test
// -run patterns must name tests that exist.
const workflow = ".github/workflows/ci.yml"

// TestCIRunPatternsNameTests fails on every alternative of a go test -run
// pattern in the CI workflow that matches no Test or Fuzz function in the
// packages that command names, so deleting or renaming a test cannot leave
// a CI step silently running nothing in its place.
func TestCIRunPatternsNameTests(t *testing.T) {
	findings, err := staleRunPatterns(repoRoot(t), workflow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestCIRunPatternCheckFires proves the check on a synthetic module and
// workflow: alternatives naming a test, a fuzz target and a prefix of a test
// pass; one naming no test, one naming a test of another package, one naming
// a helper that is not a test and one that is not a valid pattern fail; and
// the benchmarks-only '^$' is skipped.
func TestCIRunPatternCheckFires(t *testing.T) {
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
	write("go.mod", "module tool\n")
	write("a/a_test.go", `package a

import "testing"

func TestAlphaRuns(t *testing.T) {}
func FuzzBeta(f *testing.F)      {}
func helperTest(t *testing.T)    {}
`)
	write("b/b_test.go", `package b

import "testing"

func TestOther(t *testing.T) {}
`)
	write("ci.yml", `jobs:
  test:
    steps:
      - name: Suites
        run: |
          go test -race -count=3 -run 'TestAlpha|FuzzBeta|TestGone|TestOther|helperTest' ./a
          go test -run 'TestOther' -count=1 ./b
          go test -run 'Test(' ./a
      - name: Benchmarks
        run: go test -run '^$' -bench . ./a
`)
	findings, err := staleRunPatterns(root, "ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"TestGone", "TestOther", "helperTest", "Test("}
	if len(findings) != len(want) {
		t.Fatalf("findings = %q, want one each for %v", findings, want)
	}
	for i, name := range want {
		if !strings.Contains(findings[i], " "+name+" ") {
			t.Errorf("finding %d = %q, want %s", i, findings[i], name)
		}
	}
}

// runFlag captures a go test command's -run pattern in single quotes.
var runFlag = regexp.MustCompile(`-run '([^']*)'`)

// staleRunPatterns returns one finding, in workflow order, per alternative
// (the pattern split at |) of a -run pattern on a go test line of the
// workflow that matches no Test* or Fuzz* function declared in the _test.go
// files of the packages the line names (./dir or .). A pattern is
// matched the way go test matches it, unanchored, so an alternative may name
// a prefix of a test. The pattern '^$', which runs benchmarks only, is
// skipped.
func staleRunPatterns(root, workflowPath string) ([]string, error) {
	f, err := os.Open(filepath.Join(root, workflowPath))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tests := map[string][]string{} // package argument -> its test names
	var findings []string
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		m := runFlag.FindStringSubmatch(text)
		if m == nil || !strings.Contains(text, "go test") || m[1] == "^$" {
			continue
		}
		var names []string
		for _, arg := range strings.Fields(text) {
			if arg != "." && !strings.HasPrefix(arg, "./") {
				continue
			}
			if _, ok := tests[arg]; !ok {
				if tests[arg], err = testNames(root, arg); err != nil {
					return nil, err
				}
			}
			names = append(names, tests[arg]...)
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			matched := false
			for _, name := range names {
				if err == nil && re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				findings = append(findings, workflowPath+":"+strconv.Itoa(line)+": -run alternative "+alt+
					" matches no test or fuzz target in the packages the command names")
			}
		}
	}
	return findings, sc.Err()
}

// testNames returns the Test* and Fuzz* functions declared in the _test.go
// files of the package directory a go test argument names.
func testNames(root, arg string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(root, arg, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names, nil
}
