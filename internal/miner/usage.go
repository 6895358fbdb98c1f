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
// this replay is the only writer of the ledger, and the budget reads it. Because the replay depends
// only on the commit order (which is deterministic) and on data (which is
// deterministic), ExecutedQueries, AugmentedQueries, CacheServed, CostUsed
// and the cache hit/miss statistics are bit-identical for any worker count —
// the at-most-once query accounting the paper's Fig 6/7 and Table 3 assume.
//
// The simulated caches are the committed-key sets of one run: they start
// empty, as the physical caches do, and never evict. Events and simulated
// caches name units and scopes by the session's ordinals (cache.UnitID,
// cache.ScopeID), so the replay hashes no string; the strings are rendered
// only for trace labels and snapshots.

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

// unitUse describes one unit query: its id, the analytic cost of the scan
// that a miss would execute, and the unit read, whose size the replay takes
// when its simulated cache stores it.
type unitUse struct {
	id   cache.UnitID
	cost float64
	unit *cache.Unit
}

// siblingUse describes one augmented-prefetch decision.
type siblingUse struct {
	// scopes are the HDS scopes (the work unit's own slice, read-only); the
	// prefetch fires iff any scope's unit is missing from the (simulated)
	// cache.
	scopes []scopeRef
	// cost is the analytic cost of the augmented scan.
	cost float64
	// siblings are the non-empty sibling units the scan produces (cost
	// unused).
	siblings []unitUse
}

// usageEvent is one recorded event. unit is set for useUnit, and for
// useImpact as the probe's fallback query with probed the probed handle;
// scope for useEval; sibling for useSiblings.
type usageEvent struct {
	kind    usageKind
	unit    unitUse
	scope   cache.ScopeID
	probed  *engine.Handle
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

// recordUnit records a unit query of u.
func (r *recorder) recordUnit(id cache.UnitID, u *cache.Unit, cost float64) {
	r.events = append(r.events, usageEvent{kind: useUnit, unit: unitUse{id: id, cost: cost, unit: u}})
}

func (r *recorder) recordEval(id cache.ScopeID) {
	r.events = append(r.events, usageEvent{kind: useEval, scope: id})
}

func (r *recorder) recordImpact(p engine.ImpactProbe) {
	r.events = append(r.events, usageEvent{kind: useImpact, probed: p.Handle,
		unit: unitUse{id: p.Fallback, cost: p.Cost, unit: p.Unit}})
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
	eng       *engine.Engine // names units and scopes, and renders them
	dims      int            // table dimensions, for impact probe ids
	qcEnabled bool
	pcEnabled bool
	// obs receives one trace event per replayed charge/lookup. The replay
	// runs on the dispatcher goroutine in commit order, so the emitted
	// events read as the canonical single-worker execution; traced caches
	// the Tracing() check so untraced runs skip label construction.
	obs    *obs.Observer
	traced bool

	qc      map[cache.UnitID]int64 // simulated query cache: unit → bytes
	qcBytes int64
	pc      map[cache.ScopeID]struct{} // simulated pattern cache: committed scopes

	qcHits, qcMisses int64
	pcHits, pcMisses int64
	cost             float64
	// The ledger's counts: queries that scanned the table, logical queries
	// answered from the cache, and the executed ones that were augmented
	// scans. costNanos is the cost in exact nano-units, truncated per charge:
	// the total Stats.CostUsed reports and the budget reads. cost, the float
	// sum, only labels trace events and metrics.
	executed, served, augmented int64
	costNanos                   int64
}

// newAccounting creates the simulation with empty caches: a run's physical
// caches start empty too, so a single worker would find nothing cached.
func newAccounting(eng *engine.Engine, qcEnabled, pcEnabled bool, o *obs.Observer) *accounting {
	return &accounting{
		eng:       eng,
		dims:      len(eng.Table().Dimensions()),
		qcEnabled: qcEnabled,
		pcEnabled: pcEnabled,
		obs:       o,
		traced:    o.Tracing(),
		qc:        make(map[cache.UnitID]int64),
		pc:        make(map[cache.ScopeID]struct{}),
	}
}

func (a *accounting) charge(cost float64) {
	a.cost += cost
	a.costNanos += int64(cost * 1e9)
}

// store simulates a query-cache Put, replacing any previous entry.
func (a *accounting) store(id cache.UnitID, bytes int64) {
	a.qcBytes += bytes - a.qc[id]
	a.qc[id] = bytes
}

// label renders a unit id as a trace label, matching DataScope.Key's
// "subspace|breakdown" shape.
func (a *accounting) label(id cache.UnitID) string {
	k := a.eng.UnitKeyOf(id)
	return k.Subspace + "|" + k.Breakdown
}

// applyUnit replays one unit query: a cached unit is served, a missing one
// is scanned (counted, charged) and stored.
func (a *accounting) applyUnit(u unitUse) {
	if !a.qcEnabled {
		a.qcMisses++
		a.executed++
		a.charge(u.cost)
		if a.traced {
			a.obs.Event(obs.EvQueryExec, a.label(u.id), "query-cache disabled", u.cost)
		}
		return
	}
	if _, ok := a.qc[u.id]; ok {
		a.qcHits++
		a.served++
		if a.traced {
			a.obs.Event(obs.EvCacheHit, a.label(u.id), "query-cache", 0)
		}
		return
	}
	a.qcMisses++
	a.executed++
	a.charge(u.cost)
	a.store(u.id, u.unit.ApproxBytes())
	if a.traced {
		label := a.label(u.id)
		a.obs.Event(obs.EvCacheMiss, label, "query-cache", 0)
		a.obs.Event(obs.EvQueryExec, label, "", u.cost)
	}
}

// apply replays one usage event.
func (a *accounting) apply(ev usageEvent) {
	switch ev.kind {
	case useUnit:
		a.applyUnit(ev.unit)
	case useEval:
		if a.pcEnabled {
			if _, ok := a.pc[ev.scope]; ok {
				a.pcHits++
				if a.traced {
					a.obs.Event(obs.EvCacheHit, a.eng.ScopeKeyOf(ev.scope).String(), "pattern-cache", 0)
				}
				return
			}
			a.pc[ev.scope] = struct{}{}
		}
		a.pcMisses++
		a.charge(engine.EvaluationCost)
		if a.traced {
			a.obs.Event(obs.EvPatternEval, a.eng.ScopeKeyOf(ev.scope).String(), "", engine.EvaluationCost)
		}
	case useImpact:
		if a.qcEnabled {
			// A cached unit on any unfiltered breakdown serves the impact
			// lookup for free.
			for d := 0; d < a.dims; d++ {
				if ev.probed.Has(d) {
					continue
				}
				id := a.eng.UnitIDAt(ev.probed, d)
				if _, ok := a.qc[id]; ok {
					if a.traced {
						a.obs.Event(obs.EvCacheHit, a.label(id), "impact-probe", 0)
					}
					return
				}
			}
		}
		a.applyUnit(ev.unit)
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
		if _, ok := a.qc[a.eng.UnitIDAt(ref.h, ref.bdim)]; !ok {
			missing = true
			break
		}
	}
	rep := ""
	if a.traced && len(s.scopes) > 0 {
		rep = a.label(a.eng.UnitIDAt(s.scopes[0].h, s.scopes[0].bdim))
	}
	if !missing {
		// Every sibling unit cached: the prefetch is skipped.
		if a.traced {
			a.obs.Event(obs.EvCacheHit, rep, "prefetch skipped: all siblings cached", 0)
		}
		return
	}
	a.executed++
	a.augmented++
	a.charge(s.cost)
	for _, sib := range s.siblings {
		a.store(sib.id, sib.unit.ApproxBytes())
	}
	if a.traced {
		a.obs.Event(obs.EvQueryExec, rep,
			fmt.Sprintf("augmented prefetch: %d siblings", len(s.siblings)), s.cost)
	}
}

// queryStats reports the simulated query cache as cache.Stats. Bytes is
// reporting-only and excluded from the determinism guarantee: it sums the
// sizes of the units the run recorded, which can differ by substrate (its
// unit columns).
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
