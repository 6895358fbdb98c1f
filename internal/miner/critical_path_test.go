package miner

import (
	"fmt"
	"testing"
	"time"

	"metainsight/internal/engine"
	"metainsight/internal/obs"
	"metainsight/internal/workload"
)

// TestDispatcherTimeAccountsForWall checks the critical-path instruments:
// the dispatcher's busy time, by part, plus its blocked time (the wait_*
// counters) must account for the run's wall time, measured around Run, to
// within a fiftieth of it plus a millisecond. Outside both are only Run's
// first clock read and its last instrument updates; a part left out, or
// counted twice, shows as a gap of its own size. The worker clocks must
// split a MetaInsight unit's time into its scope loop and the rest.
func TestDispatcherTimeAccountsForWall(t *testing.T) {
	tab := workload.SalesForecast()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := engine.New(tab, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Workers = workers
			cfg.Observer = obs.New(obs.Options{})
			start := time.Now()
			New(eng, cfg).Run()
			wall := time.Since(start)

			snap := cfg.Observer.Snapshot()
			var busy, waits time.Duration
			for _, name := range []string{obsBusyDispatch, obsBusyReplay, obsBusyCommit, obsBusyFinish} {
				if snap.Counters[name] <= 0 {
					t.Errorf("%s = %d, want a positive busy time", name, snap.Counters[name])
				}
				busy += time.Duration(snap.Counters[name])
			}
			for _, why := range []waitReason{waitWorkersBusy, waitWindowFull, waitQueueEmpty} {
				waits += time.Duration(snap.Counters[string(why)])
			}
			gap := wall - busy - waits
			t.Logf("wall %v = busy %v + waits %v + gap %v", wall, busy, waits, gap)
			if tolerance := wall/50 + time.Millisecond; gap < -tolerance || gap > tolerance {
				t.Errorf("busy %v + waits %v is %v away from the run's wall time %v (tolerance %v)",
					busy, waits, gap, wall, tolerance)
			}

			mi := snap.Counters[obsWorkerMI]
			evaluate, assemble := snap.Counters[obsWorkerMIEvaluate], snap.Counters[obsWorkerMIAssemble]
			if mi <= 0 || evaluate <= 0 || evaluate+assemble != mi {
				t.Errorf("MetaInsight worker time %d ns is not its scope loops' %d ns plus the rest's %d ns", mi, evaluate, assemble)
			}
			timing := map[string]bool{}
			for _, name := range snap.Timing {
				timing[name] = true
			}
			for _, name := range []string{obsBusyDispatch, obsBusyReplay, obsBusyCommit, obsBusyFinish,
				obsWorkerExpand, obsWorkerPattern, obsWorkerMI, obsWorkerMIEvaluate, obsWorkerMIAssemble, obsProcessGC} {
				if !timing[name] {
					t.Errorf("%s is not marked timing", name)
				}
			}
		})
	}
}
