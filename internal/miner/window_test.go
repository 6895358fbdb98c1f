package miner

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/obs"
	"metainsight/internal/workload"
)

// windowRun is one mining run with everything the invariance net compares.
type windowRun struct {
	stats  Stats
	keys   []string          // the MetaInsights' keys, in result order
	mis    [sha256.Size]byte // digest of the MetaInsights' JSON, in result order
	trace  [sha256.Size]byte // digest of the commit-order trace
	events int64             // events the trace recorded
	qStats cache.Stats
	pStats cache.Stats
	peak   float64 // deepest speculation window of the run
}

const (
	// windowTraceCapacity holds the whole trace of the largest run the net
	// mines (Hotel Booking unbudgeted: ≈ 394 k events).
	windowTraceCapacity = 1 << 19
	// windowTablesAtOnce bounds how many tables the net mines at once,
	// whatever -parallel says. A table's arms hold two results, a trace
	// ring and the run's memos, and the race detector's shadow memory
	// multiplies what the heap spans.
	windowTablesAtOnce = 2
)

// runForWindow mines tab, tracing every event the commit path records when
// traced is set. The run keeps its statistics, its MetaInsights' keys and
// digests of the MetaInsights and of the trace, not the result: both are
// hashed a MetaInsight or an event at a time, as Hotel Booking's result
// holds 27 MB and encodes to 43 MB of JSON, which the race detector's shadow
// memory would multiply.
func runForWindow(t *testing.T, tab *dataset.Table, workers int, traced bool, mutate func(*Config, *engine.Config)) windowRun {
	t.Helper()
	ecfg := engine.Config{}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg, &ecfg)
	}
	cfg.Workers = workers
	opts := obs.Options{}
	if traced {
		opts.TraceCapacity = windowTraceCapacity
	}
	cfg.Observer = obs.New(opts)
	eng, err := engine.New(tab, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	res := New(eng, cfg).Run()
	out := windowRun{stats: res.Stats}
	out.qStats = eng.QueryCache().Stats()
	out.pStats = eng.PatternCache().Stats()
	out.peak = cfg.Observer.Snapshot().Gauges[obsWindowPeak]
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, mi := range res.All() {
		out.keys = append(out.keys, mi.Key())
		if err := enc.Encode(mi); err != nil {
			t.Fatal(err)
		}
	}
	h.Sum(out.mis[:0])
	if tr := cfg.Observer.Trace(); tr != nil {
		if tr.Dropped() > 0 {
			t.Fatalf("workers=%d: the trace ring dropped %d events; raise windowTraceCapacity", workers, tr.Dropped())
		}
		h := sha256.New()
		for _, ev := range tr.Events() {
			fmt.Fprintf(h, "%d %v %q %q %v\n", ev.Seq, ev.Kind, ev.Unit, ev.Detail, ev.Cost)
		}
		h.Sum(out.trace[:0])
		out.events = int64(tr.Len())
	}
	return out
}

// assertSameKeys fails the test when two runs' MetaInsight keys differ.
func assertSameKeys(t *testing.T, label string, want, got []string) {
	t.Helper()
	if !slices.Equal(want, got) {
		t.Errorf("%s: %d MetaInsights differ from the one-worker run's %d", label, len(got), len(want))
	}
}

// TestDeepWindowInvariance is the net under the deeper speculation window:
// on the four Figure-6 tables and the benchmark's generated table at its
// quick scale, results, statistics, the commit-order trace event for event
// and both caches' occupancy are the same at 1, 2 and 8 workers — and so is
// a cost-budgeted run, where units evaluated ahead of the stop are thrown
// away.
func TestDeepWindowInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("mines five tables at three worker counts")
	}
	tabs := append(workload.FourLargeDatasets(),
		workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30}))
	tables := make(chan struct{}, windowTablesAtOnce)
	for _, tab := range tabs {
		t.Run(tab.Name(), func(t *testing.T) {
			t.Parallel()
			tables <- struct{}{}
			defer func() { <-tables }()
			ref := runForWindow(t, tab, 1, true, nil)
			total := commitTotal(ref.stats)
			deepest := 0.0
			for _, workers := range []int{2, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				got := runForWindow(t, tab, workers, true, nil)
				assertSameKeys(t, label, ref.keys, got.keys)
				assertSameStats(t, label, ref.stats, got.stats)
				if got.mis != ref.mis {
					t.Errorf("%s: MetaInsights differ from the one-worker run", label)
				}
				if got.qStats != ref.qStats || got.pStats != ref.pStats {
					t.Errorf("%s: cache occupancy %+v / %+v differs from the one-worker run's %+v / %+v",
						label, got.qStats, got.pStats, ref.qStats, ref.pStats)
				}
				if got.trace != ref.trace || got.events != ref.events {
					t.Errorf("%s: commit-order trace (%d events) differs from the one-worker trace (%d events)",
						label, got.events, ref.events)
				}
				deepest = max(deepest, got.peak)
			}
			t.Logf("%d commits, %d trace events, deepest window %.0f entries", total, ref.events, deepest)

			budget := func(c *Config, e *engine.Config) {
				c.Budget = Budget{Cost: ref.stats.CostUsed / 3}
			}
			one := runForWindow(t, tab, 1, false, budget)
			got := runForWindow(t, tab, 8, false, budget)
			assertSameKeys(t, "budget workers=8", one.keys, got.keys)
			assertSameStats(t, "budget workers=8", one.stats, got.stats)
			if commitTotal(one.stats) >= total {
				t.Errorf("budget: the budget never stopped the run, the arm is vacuous")
			}
		})
	}
}

// TestFullWindowStillAdvances shrinks the finished-entry bound until the
// window is full most of the time. The bound may hold back speculation, never
// the canonical head: a head still in the queue when the window is full has
// to be dispatched all the same, or the run ends early with work pending.
func TestFullWindowStillAdvances(t *testing.T) {
	tab := wideTable()
	ref := runMiner(t, tab, nil)
	for _, bound := range []int{1, 3, 16} {
		eng, err := engine.New(tab, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Observer = obs.New(obs.Options{})
		m := New(eng, cfg)
		m.maxFinished = bound
		res := m.Run()
		label := fmt.Sprintf("bound=%d", bound)
		assertSameOrderedKeys(t, label, ref, res)
		assertSameStats(t, label, ref.Stats, res.Stats)
		if cfg.Observer.Snapshot().Counters[string(waitWindowFull)] == 0 {
			t.Errorf("%s: the window never filled, the test is vacuous", label)
		}
	}
}
