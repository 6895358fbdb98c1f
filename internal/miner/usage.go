package miner

import (
	"fmt"

	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/obs"
)

// This file implements the miner's canonical accounting. Workers execute
// compute units speculatively and purely — they materialize data through the
// engine, which charges nothing, and record *usage events* describing the
// cache lookups and scans their unit logically performs. The dispatcher
// replays those events against a simulated cache in canonical commit order,
// charging the run's ledger and statistics as a single-worker run would:
// this replay, with the checkpoint restore that reinstates it, is the only
// writer of the ledger, and the budget reads it. Because the replay depends
// only on the commit order (which is deterministic) and on data (which is
// deterministic), ExecutedQueries, AugmentedQueries, CacheServed, CostUsed
// and the cache hit/miss statistics are bit-identical for any worker count —
// the at-most-once query accounting the paper's Fig 6/7 and Table 3 assume.
//
// A query whose substrate call errored is recorded as failed by the worker
// and replayed as skipped-but-accounted: counted, traced, charged nothing.
// The simulated caches are the committed-key sets of one run: they start
// empty, as the physical caches do, and never evict.

// usageKind tags one recorded usage event.
type usageKind int

const (
	// useUnit is one logical unit query (the paper's BasicQuery or the
	// expand module's group-by probe): served if cached, else one scan.
	useUnit usageKind = iota
	// useEval is one data-pattern evaluation: free if memoized, else one
	// evaluation charge.
	useEval
	// useImpact is one impact lookup (Equation 2): free if any unit of the
	// subspace is cached, else one fallback unit scan.
	useImpact
	// useSiblings is one augmented-query prefetch decision for a
	// subspace-extending HDS: skipped if every sibling unit is cached, else
	// one augmented scan populating the whole sibling group.
	useSiblings
)

// unitUse describes one unit query: its cache key, the analytic cost of the
// scan that a miss would execute, and the unit's approximate size.
type unitUse struct {
	key   cache.UnitKey
	cost  float64
	bytes int64
	// failed records that the worker's materialization errored (a substrate
	// error): the query is counted as failed but charged nothing.
	failed bool
}

// siblingUse describes one augmented-prefetch decision.
type siblingUse struct {
	// scopes are the HDS scopes (the work unit's own slice, read-only); the
	// prefetch fires iff any scope's unit is missing from the (simulated)
	// cache.
	scopes []scopeRef
	// cost is the analytic cost of the augmented scan.
	cost float64
	// failed records that the augmented query errored; the unit fell back to
	// per-sibling basic queries.
	failed bool
	// siblings are the non-empty sibling units the scan produces.
	siblings []unitUse
}

// usageEvent is one recorded event. unit is set for useUnit and useEval —
// for an evaluation, unit.key is the scope's unit key and measure its
// canonical measure key; impact and sibling for their kinds.
type usageEvent struct {
	kind    usageKind
	unit    unitUse
	measure string
	impact  *engine.ImpactProbe
	sibling *siblingUse
}

// statDelta carries the worker-side counters of one compute unit; the
// dispatcher folds it into Stats when (and only when) the unit commits.
type statDelta struct {
	expandUnits      int64
	dataPatternUnits int64
	metaInsightUnits int64
	patternsFound    int64
	pruned1          int64
	boundSkips       int64
	boundScanSkips   int64
	shortSeriesSkips int64
	extractErrors    int64
}

// recorder accumulates the usage events of one compute unit, in the order a
// sequential execution performs them.
type recorder struct {
	events []usageEvent
}

// grow reserves room for n more events; each process function knows its
// event count to within a small factor from its scope count.
func (r *recorder) grow(n int) {
	if cap(r.events)-len(r.events) < n {
		r.events = append(make([]usageEvent, 0, len(r.events)+n), r.events...)
	}
}

func (r *recorder) recordUnit(u *cache.Unit, cost float64) {
	r.events = append(r.events, usageEvent{kind: useUnit, unit: unitUse{
		key:   u.Key,
		cost:  cost,
		bytes: u.ApproxBytes(),
	}})
}

// recordUnitFail records a unit query whose materialization errored.
func (r *recorder) recordUnitFail(key cache.UnitKey, cost float64) {
	r.events = append(r.events, usageEvent{kind: useUnit, unit: unitUse{
		key:    key,
		cost:   cost,
		failed: true,
	}})
}

func (r *recorder) recordEval(k cache.ScopeKey) {
	r.events = append(r.events, usageEvent{kind: useEval, unit: unitUse{key: k.Unit}, measure: k.Measure})
}

func (r *recorder) recordImpact(p *engine.ImpactProbe) {
	r.events = append(r.events, usageEvent{kind: useImpact, impact: p})
}

func (r *recorder) recordSiblings(s *siblingUse) {
	r.events = append(r.events, usageEvent{kind: useSiblings, sibling: s})
}

// accounting replays usage events against a simulated query cache and
// pattern cache, mirroring exactly what a single worker executing the
// committed units in commit order would have been charged. It is the run's
// ledger: only the dispatcher goroutine writes it, and the cost budget reads
// it there, so budgets observe only committed (deterministic) spending.
type accounting struct {
	eng       *engine.Engine // renders handles as unit keys
	dimNames  []string       // table dimension names, for impact probe keys
	qcEnabled bool
	pcEnabled bool
	// obs receives one trace event per replayed charge/lookup. The replay
	// runs on the dispatcher goroutine in commit order, so the emitted
	// events read as the canonical single-worker execution; traced caches
	// the Tracing() check so untraced runs skip label construction.
	obs    *obs.Observer
	traced bool

	qc      map[cache.UnitKey]int64 // simulated query cache: key → bytes
	qcBytes int64
	pc      map[cache.ScopeKey]struct{} // simulated pattern cache: committed scopes

	qcHits, qcMisses int64
	pcHits, pcMisses int64
	prefetchFailures int64
	failedUnits      int64
	cost             float64
	// The ledger's counts: queries that scanned the table, logical queries
	// answered from the cache, and the executed ones that were augmented
	// scans. costNanos is the cost in exact nano-units, truncated per charge:
	// the total Stats.CostUsed and the budget read, and the one a checkpoint
	// restores bit for bit, which the float cost is not.
	executed, served, augmented int64
	costNanos                   int64
}

// newAccounting creates the simulation with empty caches: a run's physical
// caches start empty too, so a single worker would find nothing cached.
func newAccounting(eng *engine.Engine, qcEnabled, pcEnabled bool, o *obs.Observer) *accounting {
	return &accounting{
		eng:       eng,
		dimNames:  eng.Table().DimensionNames(),
		qcEnabled: qcEnabled,
		pcEnabled: pcEnabled,
		obs:       o,
		traced:    o.Tracing(),
		qc:        make(map[cache.UnitKey]int64),
		pc:        make(map[cache.ScopeKey]struct{}),
	}
}

func (a *accounting) charge(cost float64) {
	a.cost += cost
	a.costNanos += int64(cost * 1e9)
}

// store simulates a query-cache Put, replacing any previous entry.
func (a *accounting) store(k cache.UnitKey, bytes int64) {
	a.qcBytes += bytes - a.qc[k]
	a.qc[k] = bytes
}

// keyLabel renders a unit key as a trace label, matching DataScope.Key's
// "subspace|breakdown" shape.
func keyLabel(k cache.UnitKey) string { return k.Subspace + "|" + k.Breakdown }

// applyUnit replays one unit query: a failed one is counted, a cached key is
// served, a missing one is scanned (counted, charged) and stored.
func (a *accounting) applyUnit(u unitUse) {
	if u.failed {
		// Substrate error: skipped-but-accounted, no charge — the scan never
		// completed.
		a.failedUnits++
		if a.traced {
			a.obs.Event(obs.EvQueryFail, keyLabel(u.key), "substrate error", 0)
		}
		return
	}
	if !a.qcEnabled {
		a.qcMisses++
		a.executed++
		a.charge(u.cost)
		if a.traced {
			a.obs.Event(obs.EvQueryExec, keyLabel(u.key), "query-cache disabled", u.cost)
		}
		return
	}
	if _, ok := a.qc[u.key]; ok {
		a.qcHits++
		a.served++
		if a.traced {
			a.obs.Event(obs.EvCacheHit, keyLabel(u.key), "query-cache", 0)
		}
		return
	}
	a.qcMisses++
	a.executed++
	a.charge(u.cost)
	a.store(u.key, u.bytes)
	if a.traced {
		a.obs.Event(obs.EvCacheMiss, keyLabel(u.key), "query-cache", 0)
		a.obs.Event(obs.EvQueryExec, keyLabel(u.key), "", u.cost)
	}
}

// apply replays one usage event.
func (a *accounting) apply(ev usageEvent) {
	switch ev.kind {
	case useUnit:
		a.applyUnit(ev.unit)
	case useEval:
		key := cache.ScopeKey{Unit: ev.unit.key, Measure: ev.measure}
		if a.pcEnabled {
			if _, ok := a.pc[key]; ok {
				a.pcHits++
				if a.traced {
					a.obs.Event(obs.EvCacheHit, key.String(), "pattern-cache", 0)
				}
				return
			}
			a.pc[key] = struct{}{}
		}
		a.pcMisses++
		a.charge(engine.EvaluationCost)
		if a.traced {
			a.obs.Event(obs.EvPatternEval, key.String(), "", engine.EvaluationCost)
		}
	case useImpact:
		p := ev.impact
		if a.qcEnabled {
			// A cached unit on any unfiltered breakdown serves the impact
			// lookup for free.
			for d, dim := range a.dimNames {
				if p.Handle.Has(d) {
					continue
				}
				k := cache.UnitKey{Subspace: p.Handle.Key(), Breakdown: dim}
				if _, ok := a.qc[k]; ok {
					if a.traced {
						a.obs.Event(obs.EvCacheHit, keyLabel(k), "impact-probe", 0)
					}
					return
				}
			}
		}
		a.applyUnit(unitUse{key: p.Fallback, cost: p.Cost, bytes: p.Bytes})
	case useSiblings:
		a.applySiblings(ev.sibling)
	}
}

// applySiblings replays one augmented-prefetch decision: skipped when every
// scope unit is cached, else one augmented scan that populates the sibling
// group.
func (a *accounting) applySiblings(s *siblingUse) {
	missing := false
	for _, ref := range s.scopes {
		if _, ok := a.qc[a.eng.UnitKeyAt(ref.h, ref.bdim)]; !ok {
			missing = true
			break
		}
	}
	rep := ""
	if a.traced && len(s.scopes) > 0 {
		rep = keyLabel(a.eng.UnitKeyAt(s.scopes[0].h, s.scopes[0].bdim))
	}
	if !missing {
		// Every sibling unit cached: the prefetch is skipped.
		if a.traced {
			a.obs.Event(obs.EvCacheHit, rep, "prefetch skipped: all siblings cached", 0)
		}
		return
	}
	if s.failed {
		a.prefetchFailures++
		if a.traced {
			a.obs.Event(obs.EvCacheMiss, rep, "augmented prefetch failed; per-sibling fallback", 0)
		}
		return
	}
	a.executed++
	a.augmented++
	a.charge(s.cost)
	for _, sib := range s.siblings {
		a.store(sib.key, sib.bytes)
	}
	if a.traced {
		a.obs.Event(obs.EvQueryExec, rep,
			fmt.Sprintf("augmented prefetch: %d siblings", len(s.siblings)), s.cost)
	}
}

// queryStats reports the simulated query cache as cache.Stats. Bytes is
// reporting-only and excluded from the determinism guarantee: it sums the
// sizes of the units the run recorded, which can differ by substrate (its
// unit columns) and across a resume.
func (a *accounting) queryStats() cache.Stats {
	return cache.Stats{
		Hits:    a.qcHits,
		Misses:  a.qcMisses,
		Entries: int64(len(a.qc)),
		Bytes:   a.qcBytes,
	}
}

// patternStats reports the simulated pattern cache as cache.Stats; Table 3
// sizes the pattern cache by entries, so Bytes stays zero.
func (a *accounting) patternStats() cache.Stats {
	return cache.Stats{
		Hits:    a.pcHits,
		Misses:  a.pcMisses,
		Entries: int64(len(a.pc)),
	}
}
