package experiments

import (
	"fmt"
	"io"

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

	return nil
}
