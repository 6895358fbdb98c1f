package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"metainsight/internal/miner"
	"metainsight/internal/obs"
	"metainsight/internal/workload"
)

// Smoke is a fast end-to-end check for CI: it mines the Credit Card dataset
// under a short cost budget at Workers=1 and Workers=8 and verifies the two
// runs report identical results and bit-identical accounting (the worker-
// count invariance the engine's single-flight execution and the miner's
// canonical-order commit guarantee). A third W=8 run with a tracing observer
// attached must match too — the observability layer is required to be inert.
// A non-nil error means an invariant is broken.
func Smoke(w io.Writer) error {
	tab := workload.CreditCard()
	const budget = 400

	run := func(workers, scanPar int, ob *obs.Observer) (map[string]bool, miner.Stats) {
		s := FullFunctionality()
		s.Workers = workers
		s.BudgetUnits = budget
		s.Observer = ob
		s.ScanParallelism = scanPar
		res, _ := s.Run(tab)
		return res.Keys(), res.Stats
	}
	oneKeys, oneStats := run(1, 1, nil)
	eightKeys, eightStats := run(8, 1, nil)

	fprintf(w, "Smoke: %s, budget %d cost units\n", tab.Name(), budget)
	fprintf(w, "  W=1: %d MetaInsights, %d executed queries, cost %.3f\n",
		len(oneKeys), oneStats.ExecutedQueries, oneStats.CostUsed)
	fprintf(w, "  W=8: %d MetaInsights, %d executed queries, cost %.3f\n",
		len(eightKeys), eightStats.ExecutedQueries, eightStats.CostUsed)

	if len(oneKeys) == 0 {
		return fmt.Errorf("smoke: no MetaInsights mined")
	}
	if len(oneKeys) != len(eightKeys) {
		return fmt.Errorf("smoke: result counts differ: W=1 %d vs W=8 %d", len(oneKeys), len(eightKeys))
	}
	for k := range oneKeys {
		if !eightKeys[k] {
			return fmt.Errorf("smoke: %q mined at W=1 but not at W=8", k)
		}
	}
	// QueryCacheStats.Bytes is best-effort (see miner.Stats); everything else
	// must match bit for bit.
	a, b := oneStats, eightStats
	a.QueryCacheStats.Bytes = 0
	b.QueryCacheStats.Bytes = 0
	if a != b {
		return fmt.Errorf("smoke: stats differ\n  W=1: %+v\n  W=8: %+v", a, b)
	}
	fprintf(w, "  accounting identical across worker counts\n")

	// Scan-parallelism invariance: runs whose physical scans use the default
	// (one goroutine per core) or 4 goroutines must be bit-identical to the
	// sequential runs above — the morsel pipeline's fixed boundaries and
	// in-order merge make the float grouping independent of intra-scan
	// parallelism.
	for _, par := range []int{0, 4} {
		parKeys, parStats := run(8, par, nil)
		if len(parKeys) != len(oneKeys) {
			return fmt.Errorf("smoke: scan parallelism %d changed result count: %d vs %d", par, len(parKeys), len(oneKeys))
		}
		for k := range oneKeys {
			if !parKeys[k] {
				return fmt.Errorf("smoke: %q mined sequentially but not at scan parallelism %d", k, par)
			}
		}
		p := parStats
		p.QueryCacheStats.Bytes = 0
		if p != a {
			return fmt.Errorf("smoke: scan parallelism %d changed stats\n  sequential: %+v\n  par=%d: %+v", par, a, par, p)
		}
	}
	fprintf(w, "  scan-parallelism invariant: identical results and accounting at per-scan parallelism 0 (default), 1 and 4\n")

	// Observer inertness: a W=8 run with metrics + tracing enabled must be
	// indistinguishable from the untraced runs.
	ob := obs.New(obs.Options{TraceCapacity: 1 << 14})
	obsKeys, obsStats := run(8, 1, ob)
	if len(obsKeys) != len(oneKeys) {
		return fmt.Errorf("smoke: observer changed result count: %d vs %d", len(obsKeys), len(oneKeys))
	}
	for k := range oneKeys {
		if !obsKeys[k] {
			return fmt.Errorf("smoke: %q mined without observer but not with it", k)
		}
	}
	c := obsStats
	c.QueryCacheStats.Bytes = 0
	if c != a {
		return fmt.Errorf("smoke: observer changed stats\n  plain: %+v\n  observed: %+v", a, c)
	}
	if ob.Trace().Len() == 0 {
		return fmt.Errorf("smoke: observer recorded no trace events")
	}
	fprintf(w, "  observer inert: identical results and accounting with tracing on (%d events)\n",
		ob.Trace().Len())

	return smokeCheckpoint(w)
}

// smokeCheckpoint is the crash-recovery smoke arm: a checkpointed Credit
// Card run (snapshot every 50 commits) is hard-killed after 125 commits and
// resumed at a different worker count; the killed run's trace concatenated
// with the resumed run's must reproduce an uninterrupted run's trace event
// for event, and results and accounting must match bit for bit.
func smokeCheckpoint(w io.Writer) error {
	tab := workload.CreditCard()
	const (
		budget = 400
		every  = 50
		kill   = 125
	)

	type line struct {
		Kind   obs.EventKind
		Unit   string
		Detail string
		Cost   float64
	}
	run := func(workers int, dir string, halt int64, resume bool) (*miner.Result, []line) {
		ob := obs.New(obs.Options{TraceCapacity: 1 << 17})
		s := FullFunctionality()
		s.Workers = workers
		s.BudgetUnits = budget
		s.Observer = ob
		s.Checkpoint = &miner.CheckpointSpec{Dir: dir, Every: every, Resume: resume}
		s.HaltAfterCommits = halt
		res, _ := s.Run(tab)
		var lines []line
		for _, ev := range ob.Trace().Events() {
			if ev.Kind == obs.EvCheckpointResume {
				continue
			}
			lines = append(lines, line{Kind: ev.Kind, Unit: ev.Unit, Detail: ev.Detail, Cost: ev.Cost})
		}
		return res, lines
	}

	root, err := os.MkdirTemp("", "metainsight-smoke-ckpt-*")
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	defer os.RemoveAll(root)

	refRes, refTrace := run(8, filepath.Join(root, "ref"), 0, false)
	killDir := filepath.Join(root, "kill")
	killRes, killTrace := run(8, killDir, kill, false)
	resRes, resTrace := run(1, killDir, 0, true)

	fprintf(w, "Smoke (checkpoint): %s, snapshot every %d commits, killed after %d, resumed at W=1\n",
		tab.Name(), every, kill)
	if got := killRes.Stats.ExpandUnits + killRes.Stats.DataPatternUnits + killRes.Stats.MetaInsightUnits; got != kill {
		return fmt.Errorf("smoke: killed run committed %d units, want %d", got, kill)
	}
	if resRes.Stats.ResumedUnits != kill {
		return fmt.Errorf("smoke: resumed run restored %d units, want %d", resRes.Stats.ResumedUnits, kill)
	}
	refKeys, resKeys := refRes.Keys(), resRes.Keys()
	if len(refKeys) == 0 || len(refKeys) != len(resKeys) {
		return fmt.Errorf("smoke: resumed result count %d != uninterrupted %d", len(resKeys), len(refKeys))
	}
	for k := range refKeys {
		if !resKeys[k] {
			return fmt.Errorf("smoke: %q mined uninterrupted but lost across kill+resume", k)
		}
	}
	a, b := refRes.Stats, resRes.Stats
	b.ResumedUnits = 0
	a.QueryCacheStats.Bytes = 0
	b.QueryCacheStats.Bytes = 0
	if a != b {
		return fmt.Errorf("smoke: kill+resume changed accounting\n  uninterrupted: %+v\n  resumed: %+v", a, b)
	}
	concat := append(append([]line(nil), killTrace...), resTrace...)
	if len(concat) != len(refTrace) {
		return fmt.Errorf("smoke: concatenated killed+resumed trace has %d events, uninterrupted %d",
			len(concat), len(refTrace))
	}
	for i := range concat {
		if concat[i] != refTrace[i] {
			return fmt.Errorf("smoke: trace diverges at event %d: killed+resumed %+v vs uninterrupted %+v",
				i, concat[i], refTrace[i])
		}
	}
	fprintf(w, "  kill+resume exact: %d MetaInsights, %d trace events reproduced bit for bit\n",
		len(resKeys), len(refTrace))
	return nil
}
