package miner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/obs"
	"metainsight/internal/workload"
)

// windowRun is one mining run with everything the invariance net compares.
type windowRun struct {
	res     *Result
	journal []byte
	qStats  cache.Stats
	pStats  cache.Stats
	peak    float64 // deepest speculation window of the run
}

// runForWindow mines tab; with dir set the run journals every commit there
// (no snapshot before the end), and halt > 0 hard-stops it after that many
// commits, which leaves the journal in place for comparison.
func runForWindow(t *testing.T, tab *dataset.Table, workers int, dir string, halt int64, mutate func(*Config, *engine.Config)) windowRun {
	t.Helper()
	ecfg := engine.Config{}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg, &ecfg)
	}
	cfg.Workers = workers
	cfg.Observer = obs.New(obs.Options{})
	if dir != "" {
		cfg.Checkpoint = &CheckpointSpec{Dir: dir, Every: 1 << 40}
		cfg.HaltAfterCommits = halt
	}
	eng, err := engine.New(tab, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	out := windowRun{res: New(eng, cfg).Run()}
	if out.res.Err != nil {
		t.Fatalf("workers=%d: %v", workers, out.res.Err)
	}
	if dir != "" {
		if out.journal, err = os.ReadFile(filepath.Join(dir, "journal.ck")); err != nil {
			t.Fatal(err)
		}
	}
	out.qStats = eng.QueryCache().Stats()
	out.pStats = eng.PatternCache().Stats()
	out.peak = cfg.Observer.Snapshot().Gauges[obsWindowPeak]
	return out
}

// TestDeepWindowInvariance is the net under the deeper speculation window:
// on the four Figure-6 tables and the benchmark's generated table at its
// quick scale, results, statistics, the commit journal byte for byte and
// both caches' occupancy are the same at 1, 2 and 8 workers — and so are a
// cost-budgeted and an S*-terminated run, where units evaluated ahead of
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
			ref := runForWindow(t, tab, 1, "", 0, nil)
			total := commitTotal(ref.res.Stats)
			deepest := 0.0
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				// Halting at the last commit ends the run where it would end
				// anyway, but skips the final snapshot that empties the journal.
				got := runForWindow(t, tab, workers, t.TempDir(), total, nil)
				assertSameOrderedKeys(t, label, ref.res, got.res)
				assertSameStats(t, label, ref.res.Stats, got.res.Stats)
				if miJSON(t, got.res) != miJSON(t, ref.res) {
					t.Errorf("%s: MetaInsights differ from the one-worker run", label)
				}
				if got.qStats != ref.qStats || got.pStats != ref.pStats {
					t.Errorf("%s: cache occupancy %+v / %+v differs from the one-worker run's %+v / %+v",
						label, got.qStats, got.pStats, ref.qStats, ref.pStats)
				}
				if ref.journal == nil {
					ref.journal = got.journal
				} else if !bytes.Equal(got.journal, ref.journal) {
					t.Errorf("%s: journal (%d bytes) differs from the one-worker journal (%d bytes)",
						label, len(got.journal), len(ref.journal))
				}
				deepest = max(deepest, got.peak)
			}
			t.Logf("%d commits, %d journal bytes, deepest window %.0f entries", total, len(ref.journal), deepest)

			for _, arm := range []struct {
				name   string
				mutate func(*Config, *engine.Config)
			}{
				{"budget", func(c *Config, e *engine.Config) {
					c.Budget = Budget{Cost: ref.res.Stats.CostUsed / 3}
				}},
				{"topk10", func(c *Config, e *engine.Config) { c.TopK = 10 }},
			} {
				one := runForWindow(t, tab, 1, "", 0, arm.mutate)
				got := runForWindow(t, tab, 8, "", 0, arm.mutate)
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

// TestResumeFromADeepWindow kills a run at a moment its window is known to be
// deep and resumes it at another worker count. The head was held until more
// than 64 + every + Workers units had run behind it, so more than 64 + every
// of them had finished and sat uncommitted when it committed; the run is
// killed at the next snapshot boundary, fewer than every commits later, so
// that snapshot is written with more than 64 finished entries in the window.
// It must carry every one of them as pending work: the resumed run has to end
// exactly where an uninterrupted one does.
func TestResumeFromADeepWindow(t *testing.T) {
	tab := wideTable()
	head := firstChildScan(t, tab)
	const (
		workers = 8
		every   = 16
	)
	ckpt := func(w int, dir string, halt int64, resume bool, sub engine.Substrate) (*Result, *obs.Observer) {
		ob := obs.New(obs.Options{})
		res := runMiner(t, tab, func(c *Config, e *engine.Config) {
			c.Workers = w
			c.Observer = ob
			c.Checkpoint = &CheckpointSpec{Dir: dir, Every: every, Resume: resume}
			c.HaltAfterCommits = halt
			e.Substrate = sub
		})
		if res.Err != nil {
			t.Fatalf("workers=%d halt=%d resume=%v: %v", w, halt, resume, res.Err)
		}
		return res, ob
	}
	ref, _ := ckpt(1, t.TempDir(), 0, false, nil)
	kill := (head.commit/every + 1) * every

	for _, resumeWorkers := range []int{1, 8} {
		dir := t.TempDir()
		_, killedObs := ckpt(workers, dir, kill, false, newGatedSubstrate(tab, head, 64+every+workers))
		if peak := killedObs.Snapshot().Gauges[obsWindowPeak]; peak <= 64+every {
			t.Fatalf("the killed run's window peaked at %.0f entries; the test needs it deeper than %d", peak, 64+every)
		}
		res, _ := ckpt(resumeWorkers, dir, 0, true, nil)
		label := fmt.Sprintf("resume at %d workers", resumeWorkers)
		if res.Stats.ResumedUnits != kill {
			t.Errorf("%s: resumed from commit %d, killed at %d", label, res.Stats.ResumedUnits, kill)
		}
		if miJSON(t, res) != miJSON(t, ref) {
			t.Errorf("%s: results differ from the uninterrupted run", label)
		}
		assertSameStats(t, label, normalizeStats(ref.Stats), normalizeStats(res.Stats))
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
