package miner

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/obs"
	"metainsight/internal/workload"
)

// windowRun is one mining run with everything the invariance net compares.
type windowRun struct {
	res    *Result
	trace  [sha256.Size]byte // digest of the commit-order trace
	events int64             // events the trace recorded
	qStats cache.Stats
	pStats cache.Stats
	peak   float64 // deepest speculation window of the run
}

// windowTraceCapacity holds the whole trace of the largest run the net
// mines (Hotel Booking unbudgeted: ≈ 394 k events).
const windowTraceCapacity = 1 << 19

// runForWindow mines tab, tracing every event the commit path records when
// traced is set; the run keeps only a digest of the trace.
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
	out := windowRun{res: New(eng, cfg).Run()}
	if tr := cfg.Observer.Trace(); tr != nil {
		if tr.Dropped() > 0 {
			t.Fatalf("workers=%d: the trace ring dropped %d events; raise windowTraceCapacity", workers, tr.Dropped())
		}
		h := sha256.New()
		for _, l := range traceOf(cfg.Observer) {
			fmt.Fprintf(h, "%d %v %q %q %v\n", l.Seq, l.Kind, l.Unit, l.Detail, l.Cost)
		}
		h.Sum(out.trace[:0])
		out.events = int64(tr.Len())
	}
	out.qStats = eng.QueryCache().Stats()
	out.pStats = eng.PatternCache().Stats()
	out.peak = cfg.Observer.Snapshot().Gauges[obsWindowPeak]
	return out
}

// TestDeepWindowInvariance is the net under the deeper speculation window:
// on the four Figure-6 tables and the benchmark's generated table at its
// quick scale, results, statistics, the commit-order trace event for event
// and both caches' occupancy are the same at 1, 2 and 8 workers — and so are
// a cost-budgeted and an S*-terminated run, where units evaluated ahead of
// the stop or of a cut are thrown away.
func TestDeepWindowInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("mines five tables at three worker counts")
	}
	tabs := append(workload.FourLargeDatasets(),
		workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30}))
	for _, tab := range tabs {
		t.Run(tab.Name(), func(t *testing.T) {
			t.Parallel()
			ref := runForWindow(t, tab, 1, true, nil)
			total := commitTotal(ref.res.Stats)
			deepest := 0.0
			for _, workers := range []int{2, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				got := runForWindow(t, tab, workers, true, nil)
				assertSameOrderedKeys(t, label, ref.res, got.res)
				assertSameStats(t, label, ref.res.Stats, got.res.Stats)
				if miJSON(t, got.res) != miJSON(t, ref.res) {
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

			for _, arm := range []struct {
				name   string
				mutate func(*Config, *engine.Config)
			}{
				{"budget", func(c *Config, e *engine.Config) {
					c.Budget = Budget{Cost: ref.res.Stats.CostUsed / 3}
				}},
				{"topk10", func(c *Config, e *engine.Config) { c.TopK = 10 }},
			} {
				one := runForWindow(t, tab, 1, false, arm.mutate)
				got := runForWindow(t, tab, 8, false, arm.mutate)
				assertSameOrderedKeys(t, arm.name+" workers=8", one.res, got.res)
				assertSameStats(t, arm.name+" workers=8", one.res.Stats, got.res.Stats)
				if arm.name == "topk10" && one.res.Stats.SStarCut == 0 {
					t.Errorf("topk10: no S* cuts, the arm is vacuous")
				}
				if arm.name == "budget" && commitTotal(one.res.Stats) >= total {
					t.Errorf("budget: the budget never stopped the run, the arm is vacuous")
				}
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
