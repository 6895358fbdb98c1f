package miner

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// failingSubstrate is the columnar substrate with scans that fail on demand —
// the one way a query can fail: a Substrate method returning an error.
// Costs and handles are those of a clean run whatever the substrate: the
// engine charges every scan from its own interned plans.
type failingSubstrate struct {
	*engine.ColumnarSubstrate
	failUnit func(s model.Subspace, breakdown string) bool
	failAug  func(base model.Subspace, breakdown, ext string) bool
}

var errScanFailed = errors.New("failing substrate: scan failed")

func (f *failingSubstrate) ScanUnit(s model.Subspace, breakdown string) (*cache.Unit, int, error) {
	if f.failUnit != nil && f.failUnit(s, breakdown) {
		return nil, 0, errScanFailed
	}
	return f.ColumnarSubstrate.ScanUnit(s, breakdown)
}

func (f *failingSubstrate) ScanAugmented(base model.Subspace, breakdown, ext string) (map[string]*cache.Unit, int, error) {
	if f.failAug != nil && f.failAug(base, breakdown, ext) {
		return nil, 0, errScanFailed
	}
	return f.ColumnarSubstrate.ScanAugmented(base, breakdown, ext)
}

// failUnitsUnder fails every unit scan whose subspace filters dim.
func failUnitsUnder(dim string) func(model.Subspace, string) bool {
	return func(s model.Subspace, _ string) bool { return s.Has(dim) }
}

// traceLine projects a trace event onto its deterministic fields (everything
// but the wall clock).
type traceLine struct {
	Seq    int64
	Kind   obs.EventKind
	Unit   string
	Detail string
	Cost   float64
}

func tracedRun(t *testing.T, workers int, mutate func(*Config, *engine.Config)) (*Result, []traceLine) {
	t.Helper()
	ob := obs.New(obs.Options{TraceCapacity: 1 << 16})
	res := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		if mutate != nil {
			mutate(c, e)
		}
		c.Workers = workers
		c.Observer = ob
	})
	return res, traceOf(ob)
}

// traceOf returns ob's trace events.
func traceOf(ob *obs.Observer) []traceLine {
	evs := ob.Trace().Events()
	lines := make([]traceLine, len(evs))
	for i, ev := range evs {
		lines[i] = traceLine{Seq: ev.Seq, Kind: ev.Kind, Unit: ev.Unit, Detail: ev.Detail, Cost: ev.Cost}
	}
	return lines
}

// TestFaultDeterminismAcrossWorkers asserts that the results, the complete
// statistics and the structured trace are bit-identical for Workers = 1..8:
// the recording paths stay pure while what the physical caches hold at any
// moment depends on worker timing.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	base, baseTrace := tracedRun(t, 1, nil)
	if len(base.MetaInsights) == 0 {
		t.Fatal("vacuous: no MetaInsights")
	}
	for _, workers := range []int{2, 3, 5, 8} {
		res, trace := tracedRun(t, workers, nil)
		assertSameOrderedKeys(t, fmt.Sprintf("%d workers", workers), base, res)
		// Bytes included: on this two-dimension table no anchor has a
		// filtered root, so no impact probe leaves a size to timing.
		if base.Stats != res.Stats {
			t.Errorf("stats differ at %d workers\n  w1: %+v\n  w%d: %+v", workers, base.Stats, workers, res.Stats)
		}
		if len(baseTrace) != len(trace) {
			t.Errorf("trace lengths differ at %d workers: %d vs %d", workers, len(baseTrace), len(trace))
			continue
		}
		for i := range trace {
			if trace[i] != baseTrace[i] {
				t.Errorf("trace diverges at event %d with %d workers:\n  w1: %+v\n  w%d: %+v",
					i, workers, baseTrace[i], workers, trace[i])
				break
			}
		}
	}
}

// TestAugmentedScanFailureFallsBack fails every augmented scan: each
// prefetch falls back to per-sibling basic queries, so the run mines exactly
// the clean run's MetaInsights, at the price of more executed queries, and
// no unit query fails.
func TestAugmentedScanFailureFallsBack(t *testing.T) {
	tab := plantedTable(t)
	clean := runMiner(t, tab, nil)
	if clean.Stats.AugmentedQueries == 0 {
		t.Fatal("vacuous: the clean run issues no augmented query")
	}
	for _, workers := range []int{1, 8} {
		res := runMiner(t, tab, func(c *Config, e *engine.Config) {
			c.Workers = workers
			e.Substrate = &failingSubstrate{
				ColumnarSubstrate: engine.NewColumnarSubstrate(tab),
				failAug:           func(model.Subspace, string, string) bool { return true },
			}
		})
		assertSameOrderedKeys(t, "augmented scans fail", clean, res)
		for i, mi := range res.MetaInsights {
			if mi.Score != clean.MetaInsights[i].Score {
				t.Errorf("workers=%d: %s scores %v, clean run %v", workers, mi.Key(), mi.Score, clean.MetaInsights[i].Score)
			}
		}
		if res.Err != nil {
			t.Errorf("workers=%d: a failed prefetch degraded the run: %v", workers, res.Err)
		}
		if workers != 1 {
			// Which prefetches a worker physically issues depends on what its
			// peers have cached by then; only the single-worker counts are exact.
			continue
		}
		s := res.Stats
		if s.PrefetchFailures == 0 || s.AugmentedQueries != 0 || s.FailedUnits != 0 {
			t.Errorf("prefetch failures %d, augmented queries %d, failed units %d; want > 0, 0, 0",
				s.PrefetchFailures, s.AugmentedQueries, s.FailedUnits)
		}
		if s.ExecutedQueries < clean.Stats.ExecutedQueries {
			t.Errorf("fallback executed %d queries, fewer than the clean run's %d",
				s.ExecutedQueries, clean.Stats.ExecutedQueries)
		}
	}
}

// TestFaultInjectionIsAccounted fails every unit scan under a City filter:
// the run terminates best-effort, each failed query is counted once and
// traced once, charged nothing, and what is mined is a subset of the clean
// run's MetaInsights.
func TestFaultInjectionIsAccounted(t *testing.T) {
	tab := plantedTable(t)
	clean := runMiner(t, tab, nil).Keys()
	for _, workers := range []int{1, 8} {
		res, trace := tracedRun(t, workers, func(c *Config, e *engine.Config) {
			e.Substrate = &failingSubstrate{
				ColumnarSubstrate: engine.NewColumnarSubstrate(tab),
				failUnit:          failUnitsUnder("City"),
			}
		})
		if res.Stats.FailedUnits == 0 {
			t.Fatalf("workers=%d: no failed units recorded", workers)
		}
		var fails int64
		for _, ev := range trace {
			if ev.Kind == obs.EvQueryFail {
				fails++
				if ev.Cost != 0 {
					t.Errorf("workers=%d: failed query %s charged %v", workers, ev.Unit, ev.Cost)
				}
			}
		}
		if fails != res.Stats.FailedUnits {
			t.Errorf("workers=%d: %d query-fail events for %d failed units", workers, fails, res.Stats.FailedUnits)
		}
		if want := fmt.Sprintf(" failed=%d", fails); !strings.Contains(res.Stats.String(), want) {
			t.Errorf("workers=%d: stats line %q lacks %q", workers, res.Stats.String(), want)
		}
		if len(res.MetaInsights) == 0 {
			t.Errorf("workers=%d: no best-effort MetaInsights", workers)
		}
		for k := range res.Keys() {
			if !clean[k] {
				t.Errorf("workers=%d: %q mined under failures but not by the clean run", workers, k)
			}
		}
	}
}

// TestDegradedThreshold asserts ErrDegraded fires exactly on the configured
// failure-rate boundary: with every filtered unit scan failing (two thirds
// of the queries) a default-threshold run is flagged and one with the
// threshold disabled (>= 1) is not; with one city failing (under 1%) the
// default tolerates it and a negative threshold flags it.
func TestDegradedThreshold(t *testing.T) {
	tab := plantedTable(t)
	run := func(threshold float64, failUnit func(model.Subspace, string) bool) *Result {
		return runMiner(t, tab, func(c *Config, e *engine.Config) {
			c.DegradedThreshold = threshold
			e.Substrate = &failingSubstrate{ColumnarSubstrate: engine.NewColumnarSubstrate(tab), failUnit: failUnit}
		})
	}
	filtered := func(s model.Subspace, _ string) bool { return s.Len() > 0 }
	flagged := run(0, filtered)
	if !errors.Is(flagged.Err, ErrDegraded) {
		t.Errorf("default threshold, %d failed units: Err = %v, want ErrDegraded", flagged.Stats.FailedUnits, flagged.Err)
	}
	if tolerant := run(1, filtered); tolerant.Err != nil {
		t.Errorf("threshold 1 still flagged: %v", tolerant.Err)
	}

	oneCity := func(s model.Subspace, _ string) bool {
		v, _ := s.Get("City")
		return v == "Yuba"
	}
	few := run(0, oneCity)
	if few.Stats.FailedUnits == 0 || few.Err != nil {
		t.Fatalf("one failing city: %d failed units, Err = %v; want some, under the default threshold",
			few.Stats.FailedUnits, few.Err)
	}
	if strict := run(-1, oneCity); !errors.Is(strict.Err, ErrDegraded) {
		t.Errorf("negative threshold, %d failed units: Err = %v, want ErrDegraded", strict.Stats.FailedUnits, strict.Err)
	}
}

// TestEveryScanErrorIsOneFailedUnit fails every unit scan of a one-filter
// Month subspace. No {Month=m} anchor is then evaluated, so nothing caches
// those units, and the subspace extensions of the {Region, Month} anchors
// look up the root {Month=m}'s impact through fallback scans that fail too.
// At one worker every error the substrate returned is exactly one failed
// unit: none is replayed as an executed, charged query.
func TestEveryScanErrorIsOneFailedUnit(t *testing.T) {
	tab := skewedTable(t)
	var errs int64
	res := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.DegradedThreshold = 1
		e.Substrate = &failingSubstrate{
			ColumnarSubstrate: engine.NewColumnarSubstrate(tab),
			failUnit: func(s model.Subspace, breakdown string) bool {
				if s.Len() != 1 || !s.Has("Month") {
					return false
				}
				errs++
				return true
			},
		}
	})
	if errs == 0 || res.Stats.FailedUnits != errs {
		t.Errorf("substrate returned %d errors, run counted %d failed units", errs, res.Stats.FailedUnits)
	}
}
