package miner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/workload"
)

var updateCandidates = flag.Bool("update", false, "rewrite testdata/candidates.golden")

// candidateGoldenPath pins, per table, how many candidates an unbudgeted run
// keeps and the SHA-256 of their JSON encodings in result order.
var candidateGoldenPath = filepath.Join("testdata", "candidates.golden")

// candidateTables are the tables TestCandidateGoldens pins: the four
// Figure-6 tables and the benchmark's generated table at its quick scale.
func candidateTables() []*dataset.Table {
	return append(workload.FourLargeDatasets(),
		workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30}))
}

// candidateDigest mines tab with the default configuration at the given
// worker count and renders its golden line: the table, the candidate count
// and the digest of the candidates, each JSON-encoded on its own, in result
// order.
func candidateDigest(t *testing.T, tab *dataset.Table, workers int) string {
	t.Helper()
	eng, err := engine.New(tab, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	res := New(eng, cfg).Run()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, mi := range res.All() {
		if err := enc.Encode(mi); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%s %d %s", tab.Name(), len(res.All()), hex.EncodeToString(h.Sum(nil)))
}

// TestCandidateGoldens pins every candidate an unbudgeted run returns — not
// only the ranked top k — on five tables at 1 and 8 workers, against digests
// committed in testdata/candidates.golden. A change to how candidates are
// found, scored, assembled or ordered moves a line. Run with -update to
// rewrite the file.
func TestCandidateGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("mines five tables twice")
	}
	var lines []string
	for _, tab := range candidateTables() {
		one := candidateDigest(t, tab, 1)
		if eight := candidateDigest(t, tab, 8); eight != one {
			t.Errorf("workers=8: %s\nworkers=1: %s", eight, one)
		}
		lines = append(lines, one)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateCandidates {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(candidateGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(candidateGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("candidates differ from %s (run with -update to accept them):\n got:\n%s\nwant:\n%s",
			candidateGoldenPath, got, want)
	}
}
