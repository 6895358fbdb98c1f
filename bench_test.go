// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per table/figure; see DESIGN.md's experiment index and
// cmd/experiments for the printing runner), plus micro-benchmarks of the
// miner, the QuickInsight baseline and the rankers, and ablation benches for
// the design choices DESIGN.md calls out. What BENCHMARK.json times (the
// end-to-end mine, scans, pattern evaluation, worker scaling) is measured by
// benchmark/, not here.
package metainsight_test

import (
	"io"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/experiments"
	"metainsight/internal/miner"
	"metainsight/internal/quickinsight"
	"metainsight/internal/ranker"
	"metainsight/internal/workload"
)

// ---------------------------------------------------------------- figures

// BenchmarkFigure6 regenerates the mining-efficiency ablation curves
// (precision vs budget under full functionality / w-o pattern cache /
// w-o query cache / FIFO queue) on the four large datasets.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6(io.Discard)
	}
}

// BenchmarkFigure7 regenerates the QuickInsight-vs-MetaInsight query-count
// comparison over the 35-dataset suite.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(io.Discard)
	}
}

// BenchmarkTable3 regenerates the cache statistics over the 35-dataset
// suite.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard)
	}
}

// BenchmarkTable4 regenerates the ranking-optimality comparison (exact
// baseline vs greedy vs rank-by-score) on the four large datasets.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard)
	}
}

// BenchmarkTable5 regenerates the user-study dataset descriptions.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard)
	}
}

// BenchmarkFigure8 regenerates the simulated user-study statistics.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure8(io.Discard, 20210620)
	}
}

// BenchmarkFigure12 regenerates the τ-sensitivity curves.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure12(io.Discard)
	}
}

// BenchmarkICubeComparison regenerates the Appendix 9.2 i³ analysis.
func BenchmarkICubeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ICubeComparison(io.Discard, 100)
	}
}

// ------------------------------------------------------------- components

// BenchmarkMinerSalesForecast measures a complete unbudgeted mining run on
// the Sales Forecast dataset.
func BenchmarkMinerSalesForecast(b *testing.B) {
	tab := workload.SalesForecast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := experiments.FullFunctionality().Run(tab)
		if len(res.All()) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkQuickInsightSalesForecast measures the QuickInsight baseline on
// the same dataset, for the overhead comparison of Figure 7.
func BenchmarkQuickInsightSalesForecast(b *testing.B) {
	tab := workload.SalesForecast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(tab, engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		res := quickinsight.Mine(eng, quickinsight.Config{})
		if len(res.Insights) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkGreedyRanking measures the paper's ranking algorithm over the
// Hotel Booking candidate set (thousands of MetaInsights, k = 10).
func BenchmarkGreedyRanking(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.HotelBooking())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.Greedy(res.All(), 10); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// BenchmarkExactRanking measures the exponential exact baseline over a
// 16-candidate pool (the Table 4 configuration).
func BenchmarkExactRanking(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.CreditCard())
	pool := ranker.RankByScore(res.All(), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.ExactTopK(pool, 10); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// --------------------------------------------------------------- ablations

// ablationRun mines Sales Forecast under a fixed cost budget with one
// optimization toggled, reporting discovered-MetaInsight counts as the
// quality metric (more is better at equal budget).
func ablationRun(b *testing.B, mutate func(*experiments.Setup)) {
	b.Helper()
	tab := workload.SalesForecast()
	golden, _ := experiments.FullFunctionality().Run(tab)
	budget := 0.25 * golden.Stats.CostUsed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup := experiments.FullFunctionality()
		setup.BudgetUnits = budget
		mutate(&setup)
		res, _ := setup.Run(tab)
		b.ReportMetric(float64(len(res.All())), "insights")
	}
}

// BenchmarkAblationFull is the reference point for the ablation benches.
func BenchmarkAblationFull(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) {})
}

// BenchmarkAblationNoQueryCache charges the run as if it had no query cache
// (miner.Config.EnableQueryCache off).
func BenchmarkAblationNoQueryCache(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.QueryCache = false })
}

// BenchmarkAblationNoPatternCache charges the run as if it had no pattern
// cache (miner.Config.EnablePatternCache off).
func BenchmarkAblationNoPatternCache(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.PatternCache = false })
}

// BenchmarkAblationFIFO replaces the priority queues with FIFO queues.
func BenchmarkAblationFIFO(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.Priority = false })
}

// BenchmarkAblationNoPruning disables both pruning rules (unbudgeted, so the
// metric is wall time rather than discovery count).
func BenchmarkAblationNoPruning(b *testing.B) {
	tab := workload.SalesForecast()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(tab, engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := miner.DefaultConfig()
		cfg.Workers = 1
		cfg.EnablePruning1 = false
		cfg.EnablePruning2 = false
		miner.New(eng, cfg).Run()
	}
}

// BenchmarkExactRankingGrouped measures the decomposed exact optimum over a
// full candidate set (the algorithmic improvement behind Table 4's
// Baseline row).
func BenchmarkExactRankingGrouped(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.SalesForecast())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.ExactTopKGrouped(res.All(), 10, 18); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// BenchmarkGreedyExactRanking measures the exact-marginal greedy extension.
func BenchmarkGreedyExactRanking(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.SalesForecast())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.GreedyExact(res.All(), 10); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// BenchmarkAblationPatternsFirst measures the paper's module-feeding
// schedule against the default merged queue (same budget; the merged queue
// discovers more per cost unit because augmented prefetches also serve the
// pattern module).
func BenchmarkAblationPatternsFirst(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.PatternsFirst = true })
}

// BenchmarkDiscussion regenerates the Section 6 categorization-robustness
// comparison.
func BenchmarkDiscussion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Discussion(io.Discard, 200, 42)
	}
}

// BenchmarkTable1 regenerates the Table 1 / Appendix 9.1 pattern-type
// exemplars.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

// BenchmarkPruning regenerates the pruning-effectiveness ablation on the
// smaller two datasets (the full four-dataset run lives in
// cmd/experiments -run pruning; the no-query-cache arm on the 1M+-cell
// dataset alone takes tens of seconds).
func BenchmarkPruning(b *testing.B) {
	tables := []*dataset.Table{workload.CreditCard(), workload.SalesForecast()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Pruning(io.Discard, tables)
	}
}
