package miner

import (
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/workload"
)

// TestReferenceSubstrateStatsIdentity runs the same mine over the vectorized
// columnar substrate and the retained naive ReferenceSubstrate and demands
// identical ordered results and bit-identical Stats. Beyond the engine-level
// differential tests (byte-identical units per scan), this pins the whole
// mining control flow — unit counts, pruning, query/cache accounting and the
// metered cost — to the substrate-independent contract: the physical scan
// layer may only change how fast units are produced, never what is mined or
// how the run is accounted. Sales Forecast issues multi-filter scans, where
// the rows a scan visits differ from every single filter's posting set; it
// runs unbudgeted and at half its unbudgeted cost, where a cost that
// depended on the substrate would stop the two runs at different units.
func TestReferenceSubstrateStatsIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		tab  *dataset.Table
	}{
		{"planted", plantedTable(t)},
		{"sales forecast", workload.SalesForecast()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := assertSubstrateIdentity(t, tc.tab, 0)
			if tc.name == "planted" {
				return
			}
			half := assertSubstrateIdentity(t, tc.tab, full.Stats.CostUsed/2)
			if len(half.All()) >= len(full.All()) {
				t.Fatalf("half the cost budget mined %d MetaInsights of %d: the budget never bound",
					len(half.All()), len(full.All()))
			}
		})
	}
}

// assertSubstrateIdentity mines tab over both substrates, under a cost
// budget when limit > 0, and requires the same keys and Stats.
func assertSubstrateIdentity(t *testing.T, tab *dataset.Table, limit float64) *Result {
	t.Helper()
	mine := func(sub engine.Substrate) *Result {
		return runMiner(t, tab, func(c *Config, e *engine.Config) {
			e.Substrate = sub
			if limit > 0 {
				c.Budget = Budget{Cost: limit}
			}
		})
	}
	vec := mine(nil)
	ref := mine(engine.NewReferenceSubstrate(tab, nil))
	assertSameOrderedKeys(t, "substrate", vec, ref)
	assertSameStats(t, "substrate", vec.Stats, ref.Stats)
	if vec.Stats.ExecutedQueries == 0 {
		t.Fatal("no queries executed: the identity test is vacuous")
	}
	return vec
}
