package icube

import (
	"strings"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/model"
)

// pollutionTable builds a tiny air-pollution-style table: "Zero" emits
// nothing (the trivial-pair trigger), "Big" dominates "Small" everywhere
// except one producer, and "EdgeA"/"EdgeB" sit near the dominance boundary.
func pollutionTable(t testing.TB) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("pollution", []model.Field{
		{Name: "Source", Kind: model.KindCategorical},
		{Name: "Producer", Kind: model.KindCategorical},
		{Name: "SO2", Kind: model.KindMeasure},
	})
	producers := []string{"P1", "P2", "P3", "P4", "P5", "P6"}
	base := map[string]float64{"Zero": 0, "Big": 100, "Small": 10, "EdgeA": 30, "EdgeB": 20}
	for src, v := range base {
		for pi, p := range producers {
			so2 := v
			if src == "Big" && p == "P3" {
				so2 = 2 // the dominance exception
			}
			if src == "EdgeA" {
				// Straddle the 0.6 boundary vs EdgeB across producers.
				so2 = v * (0.9 + 0.08*float64(pi))
			}
			b.AddRow([]string{src, p}, []float64{so2})
		}
	}
	return b.Build()
}

func mine(t testing.TB, tab *dataset.Table) []*Result {
	t.Helper()
	eng, err := engine.New(tab, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return Mine(eng, model.Sum("SO2"))
}

func findResult(results []*Result, v1, v2, ext string) *Result {
	for _, r := range results {
		if r.ExtDim != ext {
			continue
		}
		if (r.V1 == v1 && r.V2 == v2) || (r.V1 == v2 && r.V2 == v1) {
			return r
		}
	}
	return nil
}

func TestTrivialDetection(t *testing.T) {
	results := mine(t, pollutionTable(t))
	r := findResult(results, "Zero", "Big", "Producer")
	if r == nil {
		t.Fatal("Zero-Big comparison missing")
	}
	if !r.Trivial() {
		t.Error("zero-column pair not flagged trivial")
	}
	if len(r.ExceptionIdx) != 0 {
		t.Error("degenerate identical distributions should cluster fully")
	}
	if r.Score < 0.99 {
		t.Errorf("trivial result score = %v; it should rank at the top", r.Score)
	}
}

func TestKLFindsDominanceException(t *testing.T) {
	results := mine(t, pollutionTable(t))
	r := findResult(results, "Big", "Small", "Producer")
	if r == nil {
		t.Fatal("Big-Small comparison missing")
	}
	// P3 flips dominance (2 vs 10): both KL clustering and the dominance
	// reading should agree it is exceptional here — the distribution gap is
	// large.
	if len(r.ExceptionIdx) != 1 || r.Members[r.ExceptionIdx[0]].Name != "P3" {
		t.Errorf("KL exceptions = %v", r.ExceptionIdx)
	}
	if r.MiscategorizedAgainstReference() {
		t.Error("clear-cut exception should not be miscategorized")
	}
}

func TestBoundaryPairMiscategorized(t *testing.T) {
	results := mine(t, pollutionTable(t))
	r := findResult(results, "EdgeA", "EdgeB", "Producer")
	if r == nil {
		t.Fatal("EdgeA-EdgeB comparison missing")
	}
	// The shares drift across the 0.6 boundary while staying KL-close:
	// the dominance reading splits them, KL does not.
	ref := r.ReferenceExceptions()
	if len(ref) == 0 {
		t.Skip("generator did not straddle the boundary; nothing to assert")
	}
	if !r.MiscategorizedAgainstReference() {
		t.Error("boundary-straddling pair should be miscategorized by KL")
	}
}

func TestResultsSortedAndKeyed(t *testing.T) {
	results := mine(t, pollutionTable(t))
	if len(results) == 0 {
		t.Fatal("no results")
	}
	seen := map[string]bool{}
	for i, r := range results {
		if i > 0 && r.Score > results[i-1].Score {
			t.Fatal("not sorted by score")
		}
		if seen[r.Key()] {
			t.Fatalf("duplicate key %s", r.Key())
		}
		seen[r.Key()] = true
	}
}

func TestNegativeAggregatesDropped(t *testing.T) {
	b := dataset.NewBuilder("neg", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	for _, a := range []string{"x", "y"} {
		for i, bb := range []string{"p", "q", "r", "s", "t"} {
			v := float64(10 + i)
			if a == "x" && bb == "p" {
				v = -5 // negative aggregate: KL undefined
			}
			b.AddRow([]string{a, bb}, []float64{v})
		}
	}
	results := mine(t, b.Build())
	r := findResult(results, "x", "y", "B")
	if r == nil {
		t.Skip("pair skipped entirely (fewer members than MinMembers)")
	}
	for _, m := range r.Members {
		if m.Name == "p" {
			t.Error("member with negative aggregate not dropped")
		}
	}
}

func TestReferenceExceptionsMajorityRule(t *testing.T) {
	r := &Result{Members: []Member{
		{Name: "a", P: [2]float64{0.8, 0.2}},
		{Name: "b", P: [2]float64{0.75, 0.25}},
		{Name: "c", P: [2]float64{0.7, 0.3}},
		{Name: "d", P: [2]float64{0.2, 0.8}},
	}}
	exc := r.ReferenceExceptions()
	if len(exc) != 1 || r.Members[exc[0]].Name != "d" {
		t.Errorf("reference exceptions = %v", exc)
	}
}

func TestRender(t *testing.T) {
	r := &Result{
		Breakdown: "Source", V1: "Coal", V2: "Gas", ExtDim: "Producer",
		Members: []Member{
			{Name: "P1", P: [2]float64{0.7, 0.3}},
			{Name: "LongName", P: [2]float64{0.2, 0.8}},
		},
		ExceptionIdx: []int{1},
	}
	out := Render(r, 20)
	if !strings.Contains(out, "Coal vs Gas") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, "* LongName") {
		t.Errorf("exception not marked: %q", out)
	}
	if !strings.Contains(out, "70%") || !strings.Contains(out, "20%") {
		t.Errorf("shares missing: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 2 members + legend
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}
