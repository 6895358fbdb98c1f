package quickinsight

import (
	"reflect"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/miner"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

var monthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

func plantedTable(t testing.TB) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("houses", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "Sales", Kind: model.KindMeasure},
	})
	valley := []float64{100, 70, 40, 10, 40, 70, 100, 100, 100, 100, 100, 100}
	flat := []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50}
	for _, city := range []string{"LA", "SF", "SD", "SJ", "Oakland"} {
		for m, v := range valley {
			b.AddRow([]string{city, monthNames[m]}, []float64{v})
		}
	}
	for m, v := range flat {
		b.AddRow([]string{"Fresno", monthNames[m]}, []float64{v})
	}
	return b.Build()
}

func mine(t testing.TB, tab *dataset.Table, cfg Config) (*Result, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(tab, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return Mine(eng, cfg), eng
}

func TestMineFindsPlantedPatterns(t *testing.T) {
	res, _ := mine(t, plantedTable(t), Config{})
	if len(res.Insights) == 0 {
		t.Fatal("no insights")
	}
	foundValley := false
	for _, in := range res.Insights {
		if in.Type == pattern.Unimodality && in.Scope.Breakdown == "Month" {
			if city, ok := in.Scope.Subspace.Get("City"); ok && city == "LA" {
				foundValley = true
				if in.Highlight.Positions[0] != "Apr" {
					t.Errorf("LA valley at %v", in.Highlight.Positions)
				}
			}
		}
	}
	if !foundValley {
		t.Error("LA April valley not found")
	}
}

func TestInsightsAreStandalone(t *testing.T) {
	// QuickInsight emits one insight per (scope, type) — the same valley in
	// five cities appears five times; nothing groups them (that is the gap
	// MetaInsight fills).
	res, _ := mine(t, plantedTable(t), Config{})
	valleys := 0
	for _, in := range res.Insights {
		if in.Type == pattern.Unimodality && in.Scope.Subspace.Has("City") &&
			in.Scope.Measure.Key() == "SUM(Sales)" {
			valleys++
		}
	}
	if valleys != 5 {
		t.Errorf("expected 5 stand-alone city valleys, got %d", valleys)
	}
}

func TestScoreIsImpactTimesSignificance(t *testing.T) {
	res, _ := mine(t, plantedTable(t), Config{})
	for _, in := range res.Insights {
		want := in.Impact * in.Significance
		if in.Score != want {
			t.Fatalf("score %v != impact %v × significance %v", in.Score, in.Impact, in.Significance)
		}
	}
}

func TestSortedByScore(t *testing.T) {
	res, _ := mine(t, plantedTable(t), Config{})
	for i := 1; i < len(res.Insights); i++ {
		if res.Insights[i].Score > res.Insights[i-1].Score {
			t.Fatal("insights not sorted by score")
		}
	}
	top := res.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d", len(top))
	}
	if got := res.TopK(10_000); len(got) != len(res.Insights) {
		t.Error("oversized TopK should return everything")
	}
}

func TestDeterministic(t *testing.T) {
	tab := plantedTable(t)
	a, _ := mine(t, tab, Config{})
	b, _ := mine(t, tab, Config{})
	if len(a.Insights) != len(b.Insights) {
		t.Fatalf("%d vs %d insights", len(a.Insights), len(b.Insights))
	}
	for i := range a.Insights {
		if a.Insights[i].Scope.Key() != b.Insights[i].Scope.Key() ||
			a.Insights[i].Type != b.Insights[i].Type {
			t.Fatalf("ordering differs at %d", i)
		}
	}
}

func TestMaxSubspaceFiltersRespected(t *testing.T) {
	res, _ := mine(t, plantedTable(t), Config{MaxSubspaceFilters: 1})
	for _, in := range res.Insights {
		if in.Scope.Subspace.Len() > 1 {
			t.Fatalf("insight at depth %d", in.Scope.Subspace.Len())
		}
	}
}

// TestWarmInternerEqualsCold: a run charges from its own ledger, not from
// what the engine's memo holds, so on an interner that earlier runs filled
// (a QuickInsight run and a MetaInsight run, whose augmented scans leave
// units QuickInsight never asks for) insights, ExecutedQueries and CostUsed
// equal a cold run's, for a COUNT and a SUM impact measure.
func TestWarmInternerEqualsCold(t *testing.T) {
	tab := plantedTable(t)
	for _, impact := range []model.Measure{model.Count("*"), model.Sum("Sales")} {
		run := func(in *engine.Interner) *Result {
			eng, err := engine.New(tab, engine.Config{ImpactMeasure: impact, Interner: in})
			if err != nil {
				t.Fatal(err)
			}
			return Mine(eng, Config{})
		}
		cold := run(nil)
		if cold.ExecutedQueries == 0 || len(cold.Insights) == 0 {
			t.Fatalf("%s: cold run executed %d queries and found %d insights", impact, cold.ExecutedQueries, len(cold.Insights))
		}
		in := engine.NewInterner(tab)
		run(in)
		eng, err := engine.New(tab, engine.Config{ImpactMeasure: impact, Interner: in})
		if err != nil {
			t.Fatal(err)
		}
		miner.New(eng, miner.DefaultConfig()).Run()
		warm := run(in)
		if warm.ExecutedQueries != cold.ExecutedQueries || warm.CostUsed != cold.CostUsed {
			t.Errorf("%s: warm run executed %d queries for %v cost units, cold %d for %v",
				impact, warm.ExecutedQueries, warm.CostUsed, cold.ExecutedQueries, cold.CostUsed)
		}
		if !reflect.DeepEqual(warm.Insights, cold.Insights) {
			t.Errorf("%s: warm run found %d insights, cold %d, or they differ", impact, len(warm.Insights), len(cold.Insights))
		}
	}
}
