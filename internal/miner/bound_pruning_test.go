package miner

import (
	"encoding/json"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/model"
)

// skewedTable builds a table whose impact distribution makes the bound cuts
// decidable: Region is heavily skewed (West ≈ 92% of rows, East ≈ 8%), every
// city carries the planted valley series so patterns — and therefore
// subspace-extension emissions — fire throughout, and Month's per-value share
// (≈ 8%) sits below City's (≈ 15%), giving the tests thresholds that separate
// "dimension worth scanning" from "dimension provably below the frontier".
func skewedTable(t testing.TB) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("skewed", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "Region", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "Sales", Kind: model.KindMeasure},
	})
	valley := []float64{100, 70, 40, 10, 40, 70, 100, 100, 100, 100, 100, 100}
	west := []string{"Los Angeles", "San Francisco", "San Jose", "Oakland", "Sacramento", "Fresno"}
	for _, city := range west {
		for m, v := range valley {
			for r := 0; r < 4; r++ {
				b.AddRow([]string{city, "West", monthNames[m]}, []float64{v / 4})
			}
		}
	}
	for _, city := range []string{"Reno", "Tahoe"} {
		for m, v := range valley {
			b.AddRow([]string{city, "East", monthNames[m]}, []float64{v})
		}
	}
	return b.Build()
}

// runBoundPair mines the skewed table twice — bounds on and bounds off —
// under one threshold configuration and checks the contract: identical
// MetaInsights (keys and scores), zero skip counters with the cuts off, and
// no additional queries with them on.
func runBoundPair(t *testing.T, mutate func(*Config)) (on, off *Result) {
	t.Helper()
	tab := skewedTable(t)
	run := func(enable bool) *Result {
		return runMiner(t, tab, func(c *Config, e *engine.Config) {
			c.EnableBoundPruning = enable
			mutate(c)
		})
	}
	on, off = run(true), run(false)
	if miJSON(t, on) != miJSON(t, off) {
		t.Fatal("bound pruning changed the mined MetaInsights")
	}
	if off.Stats.BoundSkips != 0 || off.Stats.BoundScanSkips != 0 {
		t.Fatalf("bounds off recorded skips: emit=%d scan=%d",
			off.Stats.BoundSkips, off.Stats.BoundScanSkips)
	}
	if on.Stats.ExecutedQueries > off.Stats.ExecutedQueries {
		t.Fatalf("bound pruning executed more queries: %d vs %d",
			on.Stats.ExecutedQueries, off.Stats.ExecutedQueries)
	}
	return on, off
}

// TestBoundPruningEmitCutResultIdentical raises MinImpact so East-rooted
// subspace extensions (root impact ≈ 0.077 and ≈ 0.038) fall below Pruning
// 2's threshold: the emit-time cut must drop them before their root-impact
// query while leaving the result set untouched. Every cut trades one-for-one
// against a commit-time Pruning 2 discard or a dedup hit of the off run.
func TestBoundPruningEmitCutResultIdentical(t *testing.T) {
	on, off := runBoundPair(t, func(c *Config) {
		c.MinImpact = 0.15
		c.MinSubspaceImpact = 0.03
	})
	if on.Stats.BoundSkips == 0 {
		t.Error("emit-time bound cut never fired on skewed data")
	}
	if on.Stats.BoundScanSkips != 0 {
		t.Errorf("scan cut fired unexpectedly: %d (no dimension is below 0.03)",
			on.Stats.BoundScanSkips)
	}
	if on.Stats.Pruned2 >= off.Stats.Pruned2 {
		t.Errorf("cut emissions should reduce Pruning 2 discards: on=%d off=%d",
			on.Stats.Pruned2, off.Stats.Pruned2)
	}
}

// TestBoundPruningScanCutResultIdentical raises MinSubspaceImpact above
// Month's heaviest value share (≈ 0.083) but below City's (≈ 0.154): every
// Month expansion scan is provably fruitless and must be skipped without
// changing the explored frontier or the mined MetaInsights.
func TestBoundPruningScanCutResultIdentical(t *testing.T) {
	on, _ := runBoundPair(t, func(c *Config) {
		c.MinImpact = 0.12
		c.MinSubspaceImpact = 0.12
	})
	if on.Stats.BoundScanSkips == 0 {
		t.Error("scan-time bound cut never fired on skewed data")
	}
}

// TestBoundPruningWorkerInvariance pins that the cut decisions — pure
// functions of the table and configuration — keep results and the complete
// statistics bit-identical across worker counts while the cuts are firing.
func TestBoundPruningWorkerInvariance(t *testing.T) {
	tab := skewedTable(t)
	run := func(workers int) *Result {
		return runMiner(t, tab, func(c *Config, e *engine.Config) {
			c.Workers = workers
			c.MinImpact = 0.15
			c.MinSubspaceImpact = 0.03
		})
	}
	ref := run(1)
	if ref.Stats.BoundSkips == 0 {
		t.Fatal("bound cuts never fired; the invariance check would be vacuous")
	}
	for _, w := range []int{2, 4, 8} {
		res := run(w)
		if miJSON(t, res) != miJSON(t, ref) {
			t.Fatalf("workers=%d: MetaInsights differ from workers=1", w)
		}
		if res.Stats != ref.Stats {
			t.Fatalf("workers=%d: stats differ:\n got  %+v\n want %+v", w, res.Stats, ref.Stats)
		}
	}
}

// TestStatsJSONRoundTripBoundCounters pins the wire names of the new
// counters and their survival through Marshal/Unmarshal (the snapshot path).
func TestStatsJSONRoundTripBoundCounters(t *testing.T) {
	in := Stats{BoundSkips: 7, BoundScanSkips: 3}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["bound_skips"].(float64) != 7 || m["bound_scan_skips"].(float64) != 3 {
		t.Fatalf("wire fields wrong: %v", m)
	}
	var out Stats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}
