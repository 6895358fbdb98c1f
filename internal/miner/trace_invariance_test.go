package miner

import (
	"fmt"
	"testing"

	"metainsight/internal/engine"
	"metainsight/internal/obs"
)

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

// TestTraceAndStatsAreWorkerInvariant asserts that the results, the complete
// statistics and the structured trace are bit-identical for Workers = 1..8:
// the recording paths stay pure while what the physical caches hold at any
// moment depends on worker timing.
func TestTraceAndStatsAreWorkerInvariant(t *testing.T) {
	base, baseTrace := tracedRun(t, 1, nil)
	if len(base.All()) == 0 {
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
