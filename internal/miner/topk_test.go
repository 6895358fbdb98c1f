package miner

import (
	"testing"

	"metainsight/internal/engine"
)

// runTopK mines the planted table with S*-bounded termination at k.
func runTopK(t *testing.T, k, workers int) *Result {
	t.Helper()
	return runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.TopK = k
		c.Workers = workers
	})
}

// TestTopKTerminationPreservesTopK is the acceptance property of S*-bounded
// early termination: against the full (untruncated) run, a TopK run must keep
// every MetaInsight whose score strictly exceeds the full run's k-th best
// score, report the exact same k-th best score, and produce no result the
// full run did not — all while actually cutting units (non-vacuous) and never
// executing more queries than the full run.
func TestTopKTerminationPreservesTopK(t *testing.T) {
	full := runMiner(t, plantedTable(t), nil)
	if len(full.MetaInsights) < 5 {
		t.Fatalf("planted table mined only %d MetaInsights; grid too small", len(full.MetaInsights))
	}
	fullKeys := full.Keys()
	anyCut := false
	for _, k := range []int{1, 2, 5} {
		cut := runTopK(t, k, 1)
		if cut.Stats.SStarCut > 0 {
			anyCut = true
		}
		if len(cut.MetaInsights) < k {
			t.Fatalf("k=%d: only %d results survived", k, len(cut.MetaInsights))
		}
		// Results are sorted by score descending, so index k-1 is the k-th
		// best; the termination bound must not disturb it.
		kth := full.MetaInsights[k-1].Score
		if got := cut.MetaInsights[k-1].Score; got != kth {
			t.Fatalf("k=%d: k-th best score %v, full run has %v", k, got, kth)
		}
		got := cut.Keys()
		for _, mi := range full.MetaInsights {
			if mi.Score > kth && !got[mi.Key()] {
				t.Fatalf("k=%d: lost %q (score %v > k-th best %v)", k, mi.Key(), mi.Score, kth)
			}
		}
		for _, mi := range cut.MetaInsights {
			if !fullKeys[mi.Key()] {
				t.Fatalf("k=%d: spurious result %q not mined by the full run", k, mi.Key())
			}
		}
		// Cuts remove MetaInsight evaluations but never touch the search
		// side, so evaluated + cut must exactly account for the full run's
		// evaluated units. (ExecutedQueries is deliberately not compared:
		// cutting a unit also cuts its augmented prefetch, which may push
		// later pattern units onto their own basic scans.)
		if cut.Stats.MetaInsightUnits+cut.Stats.SStarCut != full.Stats.MetaInsightUnits {
			t.Fatalf("k=%d: evaluated %d + cut %d != full run's %d MetaInsight units",
				k, cut.Stats.MetaInsightUnits, cut.Stats.SStarCut, full.Stats.MetaInsightUnits)
		}
	}
	if !anyCut {
		t.Fatal("no unit was ever S*-cut: the termination test is vacuous")
	}
}

// TestTopKTerminationWorkerInvariance extends the canonical-commit guarantee
// to S* cuts: cut decisions are made on the dispatcher's commit path, so the
// ordered results and every statistic — including SStarCut itself — must be
// bit-identical for any worker count.
func TestTopKTerminationWorkerInvariance(t *testing.T) {
	one := runTopK(t, 2, 1)
	eight := runTopK(t, 2, 8)
	assertSameOrderedKeys(t, "topk", one, eight)
	assertSameStats(t, "topk", one.Stats, eight.Stats)
	if one.Stats.SStarCut == 0 {
		t.Fatal("no S* cuts at k=2: the invariance test is vacuous")
	}
}
