package miner

import (
	"errors"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/faults"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// testFaultPolicy is an aggressive-but-survivable injection profile: enough
// transient faults to exercise retries on most runs, a small permanent rate
// to exercise skip-and-account, and injected latency charged to the meter.
func testFaultPolicy() faults.Policy {
	return faults.Policy{
		Seed:          7,
		TransientRate: 0.10,
		PermanentRate: 0.02,
		LatencyRate:   0.25,
		LatencyUnits:  0.5,
	}
}

func patternSizeOf(key cache.ScopeKey, se *pattern.ScopeEvaluation) int64 {
	return int64(key.Len()) + se.ApproxBytes()
}

// traceFingerprint projects a trace onto its deterministic fields (everything
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
	evs := ob.Trace().Events()
	lines := make([]traceLine, len(evs))
	for i, ev := range evs {
		lines[i] = traceLine{Seq: ev.Seq, Kind: ev.Kind, Unit: ev.Unit, Detail: ev.Detail, Cost: ev.Cost}
	}
	return res, lines
}

// TestFaultDeterminismAcrossWorkers is the acceptance test of the
// fault-tolerant substrate: with an active fault policy — and again with
// byte-bounded caches on top — the results, the complete statistics
// (including FailedUnits, Retries, BreakerTrips and Evictions) and the
// structured trace must be bit-identical for Workers = 1..8.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config, *engine.Config)
	}{
		{"faults", func(c *Config, e *engine.Config) {
			e.Faults = faults.NewInjector(testFaultPolicy(), faults.RetryPolicy{BreakerThreshold: 4})
		}},
		{"faults+bounded-caches", func(c *Config, e *engine.Config) {
			e.Faults = faults.NewInjector(testFaultPolicy(), faults.RetryPolicy{BreakerThreshold: 4})
			qc := cache.NewQueryCache(true)
			qc.SetMaxBytes(4096)
			e.QueryCache = qc
			pc := cache.NewPatternCache[*pattern.ScopeEvaluation](true)
			pc.SetMaxBytes(2048, patternSizeOf)
			c.PatternCache = pc
		}},
		{"faults+deadline", func(c *Config, e *engine.Config) {
			e.Faults = faults.NewInjector(testFaultPolicy(), faults.RetryPolicy{DeadlineUnits: 6})
		}},
	}
	for _, v := range variants {
		base, baseTrace := tracedRun(t, 1, v.mutate)
		if len(base.MetaInsights) == 0 {
			t.Fatalf("%s: no MetaInsights mined under faults (vacuous)", v.name)
		}
		for _, workers := range []int{2, 3, 5, 8} {
			res, trace := tracedRun(t, workers, v.mutate)
			label := v.name
			assertSameOrderedKeys(t, label, base, res)
			// Full bit-identity, Bytes included: under an active fault policy
			// every recorded size flows through deterministic paths.
			if base.Stats != res.Stats {
				t.Errorf("%s: stats differ at %d workers\n  w1: %+v\n  w%d: %+v",
					label, workers, base.Stats, workers, res.Stats)
			}
			if len(baseTrace) != len(trace) {
				t.Errorf("%s: trace lengths differ at %d workers: %d vs %d",
					label, workers, len(baseTrace), len(trace))
				continue
			}
			for i := range trace {
				if trace[i] != baseTrace[i] {
					t.Errorf("%s: trace diverges at event %d with %d workers:\n  w1: %+v\n  w%d: %+v",
						label, i, workers, baseTrace[i], workers, trace[i])
					break
				}
			}
		}
	}
}

// TestFaultInjectionIsAccounted asserts the injection profile actually
// exercises the machinery: retries happen, failures are counted and traced,
// and the run still produces the planted MetaInsight's family best-effort.
func TestFaultInjectionIsAccounted(t *testing.T) {
	res, trace := tracedRun(t, 4, func(c *Config, e *engine.Config) {
		e.Faults = faults.NewInjector(testFaultPolicy(), faults.RetryPolicy{})
	})
	if res.Stats.Retries == 0 {
		t.Error("no retries recorded at a 10% transient rate")
	}
	if res.Stats.FailedUnits == 0 {
		t.Error("no failed units recorded at a 2% permanent rate")
	}
	kinds := map[obs.EventKind]int{}
	for _, ev := range trace {
		kinds[ev.Kind]++
	}
	if kinds[obs.EvQueryRetry] == 0 || kinds[obs.EvQueryFail] == 0 {
		t.Errorf("trace lacks fault events: retry=%d fail=%d",
			kinds[obs.EvQueryRetry], kinds[obs.EvQueryFail])
	}
	if len(res.MetaInsights) == 0 {
		t.Error("no best-effort MetaInsights under faults")
	}
}

// TestZeroPolicyMatchesBaseline asserts a zero-value fault policy and
// unbounded caches are exact no-ops: results and stats match a run with no
// injector configured at all.
func TestZeroPolicyMatchesBaseline(t *testing.T) {
	tab := plantedTable(t)
	baseline := runMiner(t, tab, func(c *Config, e *engine.Config) { c.Workers = 4 })
	zero := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.Workers = 4
		e.Faults = faults.NewInjector(faults.Policy{}, faults.RetryPolicy{})
	})
	assertSameOrderedKeys(t, "zero policy", baseline, zero)
	assertSameStats(t, "zero policy", baseline.Stats, zero.Stats)
	if zero.Stats.FailedUnits != 0 || zero.Stats.Retries != 0 || zero.Stats.Evictions != 0 {
		t.Errorf("zero policy recorded fault activity: %+v", zero.Stats)
	}
	if zero.Err != nil {
		t.Errorf("zero policy degraded: %v", zero.Err)
	}
}

// TestBoundedCacheEvictionRecomputesIdentically asserts eviction correctness:
// a byte-bounded run must evict (Stats.Evictions > 0), recompute evicted
// units on later touches (strictly more executed queries), and still produce
// exactly the unbounded run's MetaInsights — evicted state is recomputed,
// never lost or corrupted.
func TestBoundedCacheEvictionRecomputesIdentically(t *testing.T) {
	tab := plantedTable(t)
	unbounded := runMiner(t, tab, func(c *Config, e *engine.Config) { c.Workers = 4 })
	bounded := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.Workers = 4
		qc := cache.NewQueryCache(true)
		qc.SetMaxBytes(4096)
		e.QueryCache = qc
		pc := cache.NewPatternCache[*pattern.ScopeEvaluation](true)
		pc.SetMaxBytes(2048, patternSizeOf)
		c.PatternCache = pc
	})
	if bounded.Stats.Evictions == 0 {
		t.Fatal("byte bound never evicted (budget too generous for the test to bite)")
	}
	assertSameOrderedKeys(t, "bounded caches", unbounded, bounded)
	if bounded.Stats.ExecutedQueries <= unbounded.Stats.ExecutedQueries {
		t.Errorf("bounded run executed %d queries, unbounded %d; eviction should force re-scans",
			bounded.Stats.ExecutedQueries, unbounded.Stats.ExecutedQueries)
	}
	if bounded.Err != nil {
		t.Errorf("bounded run degraded: %v", bounded.Err)
	}
}

// TestDegradedThreshold asserts ErrDegraded fires exactly on the configured
// failure-rate boundary: a harsh permanent rate degrades a default-threshold
// run, and the same run with the threshold disabled (>= 1) does not.
func TestDegradedThreshold(t *testing.T) {
	harsh := faults.Policy{Seed: 11, PermanentRate: 0.5}
	flagged := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.Workers = 4
		e.Faults = faults.NewInjector(harsh, faults.RetryPolicy{})
	})
	if flagged.Err == nil {
		t.Fatalf("50%% permanent failures not flagged (FailedUnits=%d)", flagged.Stats.FailedUnits)
	}
	if !errors.Is(flagged.Err, ErrDegraded) {
		t.Errorf("Err = %v, want ErrDegraded", flagged.Err)
	}
	tolerant := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.Workers = 4
		c.DegradedThreshold = 1
		e.Faults = faults.NewInjector(harsh, faults.RetryPolicy{})
	})
	if tolerant.Err != nil {
		t.Errorf("threshold 1 still flagged: %v", tolerant.Err)
	}
	// Best-effort semantics: even at a 50% failure rate the run terminates
	// and reports its accounting.
	if flagged.Stats.FailedUnits == 0 {
		t.Error("no failures accounted under a 50% permanent rate")
	}
}

// TestBreakerSuppressesRetrySpending asserts the circuit breaker trips under
// sustained failures and only sheds cost: outcomes (the result set) must be
// identical with and without it, while the fast-fail path spends less.
func TestBreakerSuppressesRetrySpending(t *testing.T) {
	// A transient-dominated profile: failures are exhausted-retry failures,
	// whose fault cost includes the retry attempts the open breaker shortcuts
	// away. (Permanent faults fail on the first attempt and cost nothing to
	// suppress.)
	harsh := faults.Policy{Seed: 11, TransientRate: 0.75}
	run := func(breaker int) *Result {
		return runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
			c.Workers = 4
			c.DegradedThreshold = 1
			e.Faults = faults.NewInjector(harsh, faults.RetryPolicy{BreakerThreshold: breaker})
		})
	}
	without := run(0)
	with := run(3)
	if with.Stats.BreakerTrips == 0 {
		t.Fatal("breaker never tripped under sustained failures")
	}
	assertSameOrderedKeys(t, "breaker", without, with)
	if with.Stats.FailedUnits != without.Stats.FailedUnits {
		t.Errorf("breaker changed outcomes: %d vs %d failed units",
			with.Stats.FailedUnits, without.Stats.FailedUnits)
	}
	if with.Stats.CostUsed >= without.Stats.CostUsed {
		t.Errorf("breaker did not shed cost: %.2f with vs %.2f without",
			with.Stats.CostUsed, without.Stats.CostUsed)
	}
}
