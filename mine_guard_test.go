// The mining parallel-scaling guard: a CI smoke that re-measures the
// budget-400 CreditCard mine at scan parallelism 4 relative to parallelism 1
// and fails when the blessed ratio in testdata/bench_baseline.json regresses
// by more than 20%. The blessed ratio is ~1.0 — not a speedup: CreditCard's
// 1920 rows fit inside one 8192-row morsel, so ScanParallelism is
// structurally inert on this workload (DESIGN.md documents the serialization
// points). The guard exists to catch the other direction — parallelism 4
// becoming *slower* than parallelism 1 (dispatch or fan-out overhead leaking
// into small-table scans) — and to start failing downward the day morsel
// splitting makes the ratio genuinely sub-1.0, at which point the blessed
// value should be re-pinned. Gated behind BENCH_GUARD=1: ~40 timed mining
// runs are too slow for the ordinary test run.
package metainsight_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"metainsight"
	"metainsight/internal/workload"
)

type mineGuardBaseline struct {
	Description string             `json:"description"`
	Ratios      map[string]float64 `json:"mine_budget400_par4_ratio"`
}

// mineGuardIters: one budget-400 run is ~tens of milliseconds, so 20
// iterations per arm keep the guard under a few seconds while averaging out
// scheduler noise.
const mineGuardIters = 20

func timeMine(t *testing.T, par int) time.Duration {
	t.Helper()
	tab := workload.CreditCard()
	run := func() {
		a, err := metainsight.NewAnalyzer(tab,
			metainsight.WithCostBudget(400),
			metainsight.WithScanParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		res := a.Mine()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	run() // untimed warm-up: dictionary, posting-list and zone-map builds
	start := time.Now()
	for i := 0; i < mineGuardIters; i++ {
		run()
	}
	return time.Since(start)
}

func TestMineBudget400Par4RegressionGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the bench-regression guard")
	}
	data, err := os.ReadFile("testdata/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base mineGuardBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	blessed, ok := base.Ratios["creditcard"]
	if !ok || blessed <= 0 {
		t.Fatal("baseline has no blessed mine_budget400_par4_ratio for creditcard")
	}
	par1 := timeMine(t, 1)
	par4 := timeMine(t, 4)
	if par1 <= 0 {
		t.Fatalf("par=1 mine measured %v", par1)
	}
	ratio := float64(par4) / float64(par1)
	limit := blessed * 1.2
	t.Logf("mine/budget=400: par4 %v / par1 %v over %d iters -> ratio %.3f (blessed %.2f, limit %.3f)",
		par4, par1, mineGuardIters, ratio, blessed, limit)
	if ratio > limit {
		t.Errorf("mine/budget=400 par=4 regressed against par=1: ratio %.3f exceeds blessed %.2f x 1.2 = %.3f",
			ratio, blessed, limit)
	}
}

type allocGuardBaseline struct {
	Allocs map[string]struct {
		Parent  float64 `json:"parent"`
		Blessed float64 `json:"blessed"`
	} `json:"mine_allocs_per_analyze"`
}

// TestMineAllocsGuard pins the allocation bill of one warm Session.Analyze —
// Sales Forecast, one worker, no budget — to the blessed count in
// internal/engine/testdata/bench_baseline.json (recorded beside the figure
// the same measurement gave before subspaces were interned). Mining is
// allocator- and GC-bound on tables this size, so an allocation regression is
// a latency regression. The count is near-deterministic at one worker (pools
// and the Go scheduler move it by well under a percent), which is why this
// guard, unlike the timed ones, runs in every plain `go test`.
func TestMineAllocsGuard(t *testing.T) {
	data, err := os.ReadFile("internal/engine/testdata/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base allocGuardBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	b, ok := base.Allocs["salesforecast"]
	if !ok || b.Blessed <= 0 {
		t.Fatal("baseline has no blessed mine_allocs_per_analyze for salesforecast")
	}
	sess, err := metainsight.NewSession(workload.SalesForecast(),
		metainsight.WithExec(metainsight.ExecConfig{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// AllocsPerRun's own warm-up call is the session's first Analyze, which
	// builds the plans and the intern table every later request reuses.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10}); err != nil {
			t.Fatal(err)
		}
	})
	limit := b.Blessed * 1.05
	t.Logf("allocations per warm Analyze: %.0f (blessed %.0f, limit %.0f, before interning %.0f)",
		allocs, b.Blessed, limit, b.Parent)
	if allocs > limit {
		t.Errorf("allocations per warm Analyze regressed: %.0f exceeds blessed %.0f x 1.05 = %.0f",
			allocs, b.Blessed, limit)
	}
}
