package metainsight_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"metainsight"
	"metainsight/internal/workload"
)

// mineWorkload runs one budgeted mining pass and returns the result keys and
// stats (query-cache bytes zeroed; sizes are reporting-only best-effort).
func mineWorkload(t *testing.T, tab *metainsight.Dataset, workers int, ob *metainsight.Observer) (map[string]bool, metainsight.MiningStats) {
	t.Helper()
	res := analyzeOnce(t, tab, metainsight.Request{Budget: metainsight.Budget{Cost: 800}, Observer: ob},
		metainsight.WithWorkers(workers)).Result
	st := res.Stats
	st.QueryCacheStats.Bytes = 0
	return res.Keys(), st
}

// TestObserverInertness is the PR's acceptance criterion: on each of the four
// Fig-6 workloads, mining with an observer attached (metrics + tracing) must
// produce bit-identical results and statistics to mining without one, at
// Workers=1 and Workers=8.
func TestObserverInertness(t *testing.T) {
	if testing.Short() {
		t.Skip("mines four workloads eight times")
	}
	for _, tab := range workload.FourLargeDatasets() {
		tab := tab
		t.Run(tab.Name(), func(t *testing.T) {
			t.Parallel()
			baseKeys, baseStats := mineWorkload(t, tab, 1, nil)
			if len(baseKeys) == 0 {
				t.Fatal("baseline mined nothing")
			}
			for _, workers := range []int{1, 8} {
				plainKeys, plainStats := mineWorkload(t, tab, workers, nil)
				ob := metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 14})
				obsKeys, obsStats := mineWorkload(t, tab, workers, ob)

				if plainStats != baseStats {
					t.Fatalf("W=%d stats differ from W=1 baseline:\n  %+v\n  %+v", workers, baseStats, plainStats)
				}
				if obsStats != plainStats {
					t.Errorf("W=%d observer changed stats:\n  off: %+v\n  on:  %+v", workers, plainStats, obsStats)
				}
				if len(obsKeys) != len(plainKeys) {
					t.Fatalf("W=%d observer changed result count: %d vs %d", workers, len(obsKeys), len(plainKeys))
				}
				for k := range plainKeys {
					if !obsKeys[k] {
						t.Errorf("W=%d: %q mined without observer but not with it", workers, k)
					}
				}
				if ob.Trace().Len() == 0 {
					t.Error("observer recorded no trace events")
				}
			}
		})
	}
}

// TestTraceStoreOrderMatchesDiscoveryOrder checks the trace contract: the
// "store" events appear in exactly the deterministic discovery order that
// Request.Progress observes, and the trace round-trips through JSONL.
func TestTraceStoreOrderMatchesDiscoveryOrder(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	var discovered []string
	ob := metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 14})
	res := analyzeOnce(t, tab, metainsight.Request{
		Measures: salesOnly,
		Observer: ob,
		Progress: func(mi *metainsight.MetaInsight) {
			discovered = append(discovered, mi.Key())
		},
	}, metainsight.WithWorkers(8)).Result
	if len(res.All()) == 0 || len(discovered) == 0 {
		t.Fatal("mined nothing")
	}

	var stored []string
	lastSeq := int64(0)
	first := true
	for _, ev := range ob.Trace().Events() {
		if !first && ev.Seq <= lastSeq {
			t.Fatalf("trace sequence not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq, first = ev.Seq, false
		if ev.Kind.String() == "store" {
			stored = append(stored, ev.Unit)
		}
	}
	if len(stored) != len(discovered) {
		t.Fatalf("trace has %d store events, Progress saw %d discoveries", len(stored), len(discovered))
	}
	for i := range stored {
		if stored[i] != discovered[i] {
			t.Fatalf("store order diverges at %d: trace %q vs progress %q", i, stored[i], discovered[i])
		}
	}

	// JSONL round-trip: every line parses back into an equal event.
	var buf bytes.Buffer
	if err := ob.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	events := ob.Trace().Events()
	if len(lines) != len(events) {
		t.Fatalf("JSONL has %d lines, trace holds %d events", len(lines), len(events))
	}
	for i, line := range lines {
		var ev metainsight.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev != events[i] {
			t.Fatalf("line %d round-trip mismatch: %+v vs %+v", i, ev, events[i])
		}
	}
}

// TestMineContextCancellation checks the satellite contract: a cancelled
// context stops mining at a unit-commit boundary and returns the best-so-far
// result with Stats.Cancelled set, still ranked.
func TestMineContextCancellation(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	req := metainsight.Request{TopK: 5, Measures: salesOnly}
	full := analyzeOnce(t, tab, req).Result
	if full.Stats.Cancelled {
		t.Error("uncancelled run reported Cancelled")
	}

	s, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first commit
	an, err := s.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	res := an.Result
	if !res.Stats.Cancelled {
		t.Error("cancelled run did not report Cancelled")
	}
	if len(res.All()) > len(full.All()) {
		t.Errorf("cancelled run mined more than a full run: %d vs %d",
			len(res.All()), len(full.All()))
	}
	if len(an.Insights) > len(res.All()) {
		t.Errorf("ranked %d insights out of %d mined", len(an.Insights), len(res.All()))
	}
}

// TestConflictingBudgetsRejected checks the satellite contract: combining a
// time budget with a cost budget is an error, not a silent precedence rule.
func TestConflictingBudgetsRejected(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	s, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	an, err := s.Analyze(context.Background(), metainsight.Request{
		Budget: metainsight.Budget{Time: time.Second, Cost: 100},
	})
	if an != nil || !errors.Is(err, metainsight.ErrConflictingBudgets) {
		t.Errorf("analysis %v, err = %v, want ErrConflictingBudgets", an, err)
	}
}

// TestWithTauComposes checks that Request.Tau only touches τ: a run with the
// default τ passed explicitly is bit-identical to a run without it, and the
// remaining score parameters still receive their lazy defaults.
func TestWithTauComposes(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tau float64) metainsight.MiningStats {
		st := analyzeOnce(t, tab, metainsight.Request{Measures: salesOnly, Tau: tau}).Result.Stats
		st.QueryCacheStats.Bytes = 0
		return st
	}
	if plain, tau := run(0), run(0.5); plain != tau {
		t.Errorf("Tau 0.5 (the default) changed the run:\n  plain: %+v\n  tau:   %+v", plain, tau)
	}
}

// TestStatsStringAndJSON checks the MiningStats presentation satellite: the
// one-line summary mentions the headline counters, and the JSON encoding uses
// the stable snake_case names and round-trips.
func TestStatsStringAndJSON(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	st := analyzeOnce(t, tab, metainsight.Request{Measures: salesOnly}).Result.Stats

	line := st.String()
	for _, want := range []string{"units[", "patterns=", "queries[", "cost="} {
		if !strings.Contains(line, want) {
			t.Errorf("Stats.String() = %q: missing %q", line, want)
		}
	}
	if strings.Contains(line, "cancelled") {
		t.Errorf("Stats.String() = %q: spurious cancelled marker", line)
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"expand_units"`, `"data_pattern_units"`, `"metainsight_units"`,
		`"patterns_found"`, `"executed_queries"`, `"cost_used"`,
		`"cancelled"`, `"query_cache"`, `"pattern_cache"`, `"hit_rate"`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("stats JSON missing %s: %s", want, raw)
		}
	}
	var back metainsight.MiningStats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Errorf("stats JSON round-trip mismatch:\n  in:  %+v\n  out: %+v", st, back)
	}
}

// TestSnapshotPublishesEngineAndCacheGauges checks Analysis.Snapshot: it
// carries the run's ledger (miner.cost_used and miner.queries.*, the values of
// its Stats, on a budgeted and an unbudgeted request) and the caches'
// occupancy as gauges, the canonical cache accounting (and no physical
// hit/miss counts, which the caches no longer keep), and phase timers, and
// encodes stably. Each quantity has one name: the ledger is not re-published
// under engine.*, and before the first run no ledger gauge is set.
func TestSnapshotPublishesEngineAndCacheGauges(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	unbudgeted := analyzeOnce(t, tab, metainsight.Request{
		TopK: 5, Measures: salesOnly, Observer: metainsight.NewObserver(metainsight.ObserverOptions{}),
	})
	snap := unbudgeted.Snapshot()
	for _, g := range []string{
		"miner.queries.executed", "engine.interned_handles",
		"cache.query.entries", "cache.pattern.entries",
		"miner.qcache.hit_rate", "miner.qcache.entries",
		"miner.pcache.hit_rate", "miner.pcache.entries",
		"miner.cost_used", "ranker.pool", "ranker.selected",
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("snapshot missing gauge %q", g)
		}
	}
	for _, g := range []string{
		"cache.query.hits", "cache.query.misses", "cache.query.bytes",
		"cache.pattern.hits", "cache.pattern.misses",
	} {
		if v, ok := snap.Gauges[g]; ok {
			t.Errorf("snapshot publishes physical cache counter %q = %v", g, v)
		}
	}
	if snap.Gauges["miner.qcache.hit_rate"] <= 0 || snap.Gauges["miner.pcache.hit_rate"] <= 0 {
		t.Errorf("canonical hit rates not positive after a run: query %v pattern %v",
			snap.Gauges["miner.qcache.hit_rate"], snap.Gauges["miner.pcache.hit_rate"])
	}
	if snap.Gauges["miner.cost_used"] <= 0 {
		t.Error("miner.cost_used not positive after a run")
	}
	if len(snap.PhaseSeconds) == 0 {
		t.Error("snapshot has no phase timings")
	}
	if !strings.Contains(snap.Text(), "miner.cost_used") {
		t.Error("snapshot text missing gauges section")
	}

	// The ledger gauges, each with the Stats field it reports.
	ledger := map[string]func(metainsight.MiningStats) float64{
		"miner.cost_used":            func(s metainsight.MiningStats) float64 { return s.CostUsed },
		"miner.queries.executed":     func(s metainsight.MiningStats) float64 { return float64(s.ExecutedQueries) },
		"miner.queries.cache_served": func(s metainsight.MiningStats) float64 { return float64(s.CacheServed) },
		"miner.queries.augmented":    func(s metainsight.MiningStats) float64 { return float64(s.AugmentedQueries) },
	}
	budgeted := analyzeOnce(t, tab, metainsight.Request{
		TopK: 5, Measures: salesOnly, Budget: metainsight.Budget{Cost: 30},
		Observer: metainsight.NewObserver(metainsight.ObserverOptions{}),
	})
	if c := budgeted.Snapshot().Gauges["miner.cost_used"]; c >= snap.Gauges["miner.cost_used"] {
		t.Errorf("budget did not bind: %v cost units budgeted, %v unbudgeted", c, snap.Gauges["miner.cost_used"])
	}
	for name, an := range map[string]*metainsight.Analysis{"unbudgeted": unbudgeted, "budgeted": budgeted} {
		s := an.Snapshot()
		for g, field := range ledger {
			if v, ok := s.Gauges[g]; !ok || v != field(an.Result.Stats) {
				t.Errorf("%s: %s = %v (present %t), Stats say %v", name, g, v, ok, field(an.Result.Stats))
			}
		}
		for _, g := range []string{"engine.cost_units", "engine.queries.executed", "engine.queries.served", "engine.queries.augmented"} {
			if v, ok := s.Gauges[g]; ok {
				t.Errorf("%s: snapshot re-publishes the ledger as %s = %v", name, g, v)
			}
		}
	}
	a, err := metainsight.NewAnalyzer(tab, metainsight.WithObserver(metainsight.NewObserver(metainsight.ObserverOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	pre := a.Snapshot()
	for g := range ledger {
		if v, ok := pre.Gauges[g]; ok {
			t.Errorf("before the first Mine: %s = %v, want no ledger gauge", g, v)
		}
	}

	// No observer → empty snapshot, no panic.
	empty := analyzeOnce(t, tab, metainsight.Request{Measures: salesOnly}).Snapshot()
	if len(empty.Counters) != 0 || len(empty.Gauges) != 0 {
		t.Errorf("observer-less snapshot not empty: %+v", empty)
	}
}

// TestSnapshotMarksSchedulingInstruments checks the dispatcher and
// single-flight instruments: they are present after a multi-worker run, they
// are listed as timing, and with them (and the phase timers) left out two
// one-worker runs over the same table snapshot identically — everything else
// an observer records is a function of the data.
func TestSnapshotMarksSchedulingInstruments(t *testing.T) {
	tab := workload.CreditCard()
	snapshot := func(workers int) metainsight.MetricsSnapshot {
		t.Helper()
		sess, err := metainsight.NewSession(tab, metainsight.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		an, err := sess.Analyze(context.Background(), metainsight.Request{
			TopK: 5, Budget: metainsight.Budget{Cost: 400},
			Observer: metainsight.NewObserver(metainsight.ObserverOptions{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return an.Snapshot()
	}

	snap := snapshot(8)
	timing := make(map[string]bool, len(snap.Timing))
	for _, n := range snap.Timing {
		timing[n] = true
	}
	for _, n := range []string{
		"miner.dispatch.wait_workers_busy_ns", "miner.dispatch.wait_window_full_ns",
		"miner.dispatch.wait_queue_empty_ns", "miner.dispatch.inflight_at_wait",
		"miner.dispatch.window_peak", "cache.flight.followers", "cache.flight.wait_ns",
	} {
		if !timing[n] {
			t.Errorf("%s is not listed as a timing instrument: %v", n, snap.Timing)
		}
	}
	if snap.Gauges["miner.dispatch.window_peak"] < 1 {
		t.Errorf("window peak %v after a run that dispatched units", snap.Gauges["miner.dispatch.window_peak"])
	}
	if h := snap.Histograms["miner.dispatch.inflight_at_wait"]; h.Count == 0 {
		t.Error("no blocking wait recorded at 8 workers")
	}
	if !strings.Contains(snap.Text(), "miner.dispatch.window_peak") {
		t.Error("snapshot text lacks the dispatch instruments")
	}

	a, err := json.Marshal(snapshot(1).Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snapshot(1).Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("two one-worker runs differ outside the timing instruments:\n%s\n%s", a, b)
	}
}
