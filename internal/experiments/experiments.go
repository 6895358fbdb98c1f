// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and the appendix) over the synthetic workloads of
// internal/workload: Figure 6 (mining-efficiency ablations), Figure 7
// (query-count comparison with QuickInsight), Table 3 (cache statistics),
// Table 4 (ranking optimality), Table 5 (user-study datasets), Figure 8
// (simulated user studies), Figure 12 (τ sensitivity) and the Appendix 9.2
// i³ comparison. Each experiment returns a structured result and renders the
// same rows/series the paper reports.
//
// Budgets are denominated in deterministic engine cost units (one unit ≈ one
// millisecond of the paper's Excel-backed substrate; see DESIGN.md,
// substitution 1), so every number in EXPERIMENTS.md is exactly
// reproducible — at any worker count, since query execution is single-flight
// and the miner commits in canonical order (see Smoke).
package experiments

import (
	"fmt"
	"io"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/miner"
	"metainsight/internal/obs"
)

// Setup configures one mining run of an experiment.
type Setup struct {
	// QueryCache and PatternCache switch the paper's two caches on in the
	// run's accounting (miner.Config.EnableQueryCache, EnablePatternCache);
	// off, they are Figure 6's "w/o Query Cache" and "w/o Pattern Cache"
	// arms.
	QueryCache   bool
	PatternCache bool
	Priority     bool
	Workers      int
	// BudgetUnits bounds the run in cost units; 0 means unlimited.
	BudgetUnits float64
	// Tau overrides the commonness threshold; 0 keeps the default 0.5.
	Tau float64
	// MaxSubspaceFilters overrides the subspace depth; 0 keeps 3.
	MaxSubspaceFilters int
	// DisablePruning turns off both pruning rules (the pruning-effectiveness
	// ablation).
	DisablePruning bool
	// PatternsFirst selects the paper's module-feeding schedule (the data
	// pattern mining module's units strictly before MetaInsight units) for
	// the Figure 7 query accounting; the default merged priority queue lets
	// augmented prefetches also serve the pattern module.
	PatternsFirst bool
	// Observer, when set, attaches the observability layer to the run.
	// Observers are inert: results and statistics must be bit-identical with
	// or without one (Smoke asserts this in CI).
	Observer *obs.Observer
	// ScanParallelism is the per-scan goroutine count of the engine's default
	// substrate (0 = GOMAXPROCS, 1 = sequential). Scan results are bit-
	// identical at any value — the morsel pipeline's invariance — which Smoke
	// asserts in CI.
	ScanParallelism int
}

// FullFunctionality is the paper's golden configuration: all optimizations
// enabled.
func FullFunctionality() Setup {
	return Setup{QueryCache: true, PatternCache: true, Priority: true, Workers: 1}
}

// Run executes one mining run under the setup with fresh caches and ledger.
func (s Setup) Run(tab *dataset.Table) (*miner.Result, *engine.Engine) {
	eng, err := engine.New(tab, engine.Config{
		Observer:        s.Observer,
		ScanParallelism: s.ScanParallelism,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	cfg := miner.DefaultConfig()
	cfg.Workers = s.Workers
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	cfg.UsePriorityQueues = s.Priority
	cfg.EnableQueryCache = s.QueryCache
	cfg.EnablePatternCache = s.PatternCache
	cfg.Budget.Cost = s.BudgetUnits
	if s.Tau > 0 {
		cfg.Tau = s.Tau
	}
	if s.MaxSubspaceFilters > 0 {
		cfg.MaxSubspaceFilters = s.MaxSubspaceFilters
	}
	cfg.PatternsFirst = s.PatternsFirst
	cfg.Observer = s.Observer
	if s.DisablePruning {
		cfg.EnablePruning1 = false
		cfg.EnablePruning2 = false
	}
	return miner.New(eng, cfg).Run(), eng
}

// precisionAgainst computes the MetaInsight precision β of Definition 5.1:
// |golden ∩ got| / |golden|.
func precisionAgainst(golden map[string]bool, got *miner.Result) float64 {
	if len(golden) == 0 {
		return 0
	}
	hit := 0
	for k := range got.Keys() {
		if golden[k] {
			hit++
		}
	}
	return float64(hit) / float64(len(golden))
}

// fprintf writes formatted output, ignoring nil writers so experiments can
// run silently in tests.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
