package miner

import (
	"testing"

	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// panickyPattern registers a custom evaluator that blows up on every scope
// broken down by City — a deterministic panic (every worker count hits it
// identically) that fails only those units, leaving the planted
// Month-breakdown insights minable.
func panickyPattern(c *Config) {
	c.Pattern.Custom = append(c.Pattern.Custom, pattern.CustomEvaluator{
		Name: "Panicky",
		EvaluateScope: func(scope model.DataScope, _ []string, _ []float64) pattern.Evaluation {
			if scope.Breakdown == "City" {
				panic("panicky evaluator: deliberate test panic")
			}
			return pattern.Evaluation{}
		},
	})
}

// TestWorkerPanicIsolation verifies the satellite contract: a panicking
// pattern evaluator fails only its own unit — counted in
// Stats.PanickedUnits and traced as unit-panic — while the run completes
// and stays bit-identical across worker counts.
func TestWorkerPanicIsolation(t *testing.T) {
	run := func(workers int) (*Result, []traceLine) {
		return tracedRun(t, workers, func(c *Config, e *engine.Config) {
			panickyPattern(c)
		})
	}
	res1, tr1 := run(1)
	if res1.Stats.PanickedUnits == 0 {
		t.Fatal("panicking evaluator produced no PanickedUnits")
	}
	if len(res1.All()) == 0 {
		t.Fatal("a panicking evaluator took down the whole run")
	}
	sawPanic := false
	for _, l := range tr1 {
		if l.Kind == obs.EvUnitPanic {
			sawPanic = true
			if l.Detail == "" {
				t.Fatal("unit-panic event carries no panic value")
			}
		}
	}
	if !sawPanic {
		t.Fatal("no unit-panic trace event recorded")
	}
	res8, tr8 := run(8)
	if res8.Stats != res1.Stats {
		t.Fatalf("stats differ across worker counts under panics:\n w8 %+v\n w1 %+v", res8.Stats, res1.Stats)
	}
	if miJSON(t, res8) != miJSON(t, res1) {
		t.Fatal("results differ across worker counts under panics")
	}
	if len(tr8) != len(tr1) {
		t.Fatalf("trace lengths differ across worker counts: %d vs %d", len(tr8), len(tr1))
	}
	for i := range tr8 {
		if tr8[i] != tr1[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, tr8[i], tr1[i])
		}
	}
}
