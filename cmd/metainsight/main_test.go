package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"metainsight"
	"metainsight/internal/workload"
)

// minedLine is the summary line the command prints after mining.
var minedLine = regexp.MustCompile(`(?m)^mined (\d+) MetaInsight candidates in `)

// TestMinedCountLine pins the command's "mined N MetaInsight candidates"
// line on Credit Card written as CSV: N is every candidate the run keeps, the
// count MiningResult.All returns for the same request, and it stays the 519
// it read when every candidate was built during mining.
func TestMinedCountLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "credit_card.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCSV(workload.CreditCard(), f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := runCommand(t, "metainsight", "-csv", path, "-budget", "0")
	m := minedLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no mined-count line in the output:\n%s", out)
	}
	printed, _ := strconv.Atoi(m[1])

	tab, err := metainsight.OpenCSV(path, metainsight.WithMaxDimensionCardinality(100))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	an, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10, Tau: 0.5, MaxFilters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if all := len(an.Result.All()); printed != all || printed != 519 {
		t.Errorf("the command printed %d candidates; All returns %d, and the count was 519", printed, all)
	}
}

// runCommand runs the command with args as its command line and returns
// what it wrote to standard output, failing the test on a non-zero exit.
func runCommand(t *testing.T, args ...string) string {
	t.Helper()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(&buf, r)
		copied <- err
	}()
	os.Args, os.Stdout = args, w
	code := run()
	w.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit status %d:\n%s", code, buf.String())
	}
	return buf.String()
}
