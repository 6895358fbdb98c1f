package miner

import (
	"fmt"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
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
// empty, as the physical caches do, and never evict. Events name units and
// scopes by the session's ordinals (cache.UnitID, cache.ScopeID), and the
// simulated caches are arrays indexed by them (stampSet), so the replay
// hashes nothing; the strings are rendered only for trace labels and
// snapshots.

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

// usageEvent is one recorded event. A unit query (useUnit) names its unit
// by id and the analytic cost of the scan a miss would execute; an impact
// lookup (useImpact) names the probed handle h and, as id and cost, the
// fallback query; an evaluation (useEval) names its scope; an augmented
// prefetch (useSiblings) names the scan by its base handle h, the breakdown
// bdim and the augmentation dimension ext, whose codes enumerate the sibling
// units, and its cost. The replay reads a unit's size from the engine's unit
// memo when its simulated cache stores it: every unit a worker recorded is
// there, or being scanned by another worker (the memo then declined an
// augmented scan's copy), and the memo never evicts. The event holds no
// unit, so a worker's event buffer is a few words per event.
type usageEvent struct {
	kind  usageKind
	id    cache.UnitID
	scope cache.ScopeID
	cost  float64
	h     *engine.Handle
	bdim  int32
	ext   int32
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

// recordUnit records a unit query of id.
func (r *recorder) recordUnit(id cache.UnitID, cost float64) {
	r.events = append(r.events, usageEvent{kind: useUnit, id: id, cost: cost})
}

func (r *recorder) recordEval(id cache.ScopeID) {
	r.events = append(r.events, usageEvent{kind: useEval, scope: id})
}

func (r *recorder) recordImpact(p engine.ImpactProbe) {
	r.events = append(r.events, usageEvent{kind: useImpact, h: p.Handle, id: p.Fallback, cost: p.Cost})
}

// recordSiblings records the prefetch decision of the augmented scan of
// base grouped by (bdim, ext), at cost.
func (r *recorder) recordSiblings(base *engine.Handle, bdim, ext int, cost float64) {
	r.events = append(r.events, usageEvent{kind: useSiblings, h: base, bdim: int32(bdim), ext: int32(ext), cost: cost})
}

// accounting replays usage events against a simulated query cache and
// pattern cache, mirroring exactly what a single worker executing the
// committed units in commit order would have been charged. It is the run's
// ledger: only the dispatcher goroutine writes it, and the cost budget reads
// it there, so budgets observe only committed (deterministic) spending.
type accounting struct {
	eng       *engine.Engine       // names units and scopes, and renders them
	dims      []*dataset.DimColumn // for impact probe ids, sibling groups and unit sizes
	qcEnabled bool
	pcEnabled bool
	// obs receives one trace event per replayed charge/lookup. The replay
	// runs on the dispatcher goroutine in commit order, so the emitted
	// events read as the canonical single-worker execution; traced caches
	// the Tracing() check so untraced runs skip label construction.
	obs    *obs.Observer
	traced bool

	// The simulated query cache holds each stored unit's bytes by its index
	// (cache.UnitID.Index over the table's dimensions); the simulated
	// pattern cache holds the committed scopes by scopeIndex.
	qc      *stampSet[int64]
	qcBytes int64
	pc      *stampSet[struct{}]
	// measPos maps the ordinal of each mined measure to its position in the
	// measure set; nMeas is the set's size.
	measPos []uint32
	nMeas   uint64

	// The ledger's counts. A logical unit query is a query-cache hit (served
	// from the cache) or a miss (one scan of the table); augmented counts
	// the augmented scans, which execute beside the misses. costNanos is the
	// cost in exact nano-units, truncated per charge: the total
	// Stats.CostUsed reports and the budget reads. cost, the float sum, only
	// labels trace events and metrics.
	qcHits, qcMisses int64
	pcHits, pcMisses int64
	augmented        int64
	cost             float64
	costNanos        int64
}

// newAccounting creates the simulation with the empty caches of sets: a
// run's physical caches start empty too, so a single worker would find
// nothing cached.
func newAccounting(eng *engine.Engine, qcEnabled, pcEnabled bool, o *obs.Observer, sets *keySets) *accounting {
	a := &accounting{
		eng:       eng,
		dims:      eng.Table().Dimensions(),
		qcEnabled: qcEnabled,
		pcEnabled: pcEnabled,
		obs:       o,
		traced:    o.Tracing(),
		qc:        &sets.qc,
		pc:        &sets.pc,
	}
	ids := eng.MeasureIDs()
	for _, id := range ids {
		sets.measPos = grow(sets.measPos, uint64(id))
	}
	for p, id := range ids {
		sets.measPos[id] = uint32(p)
	}
	a.measPos, a.nMeas = sets.measPos, uint64(len(ids))
	return a
}

// unitIndex is the simulated query cache's index of unit id.
func (a *accounting) unitIndex(id cache.UnitID) uint64 { return id.Index(len(a.dims)) }

// scopeIndex is the simulated pattern cache's index of scope id, one of a
// mined measure's: its unit's index times the number of mined measures, plus
// the measure's position among them.
func (a *accounting) scopeIndex(id cache.ScopeID) uint64 {
	return a.unitIndex(id.Unit())*a.nMeas + uint64(a.measPos[id.Measure()])
}

// stampSet is a set of dense indices with a value per member that empties in
// constant time: an index is a member while its stamp equals the set's
// generation, so reset advances the generation and touches no slot. The
// arrays grow to the largest index a run asks for and are reused as they are
// by the next run.
type stampSet[V any] struct {
	gen    uint32
	stamps []uint32
	vals   []V
	n      int64 // members
}

// reset empties the set. Stamps are cleared only when the generation wraps.
func (s *stampSet[V]) reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamps)
		s.gen = 1
	}
	s.n = 0
}

// get returns i's value and whether i is a member.
func (s *stampSet[V]) get(i uint64) (v V, ok bool) {
	if i < uint64(len(s.stamps)) && s.stamps[i] == s.gen {
		return s.vals[i], true
	}
	return v, false
}

// put makes i a member with value v.
func (s *stampSet[V]) put(i uint64, v V) {
	if i >= uint64(len(s.stamps)) {
		s.stamps, s.vals = grow(s.stamps, i), grow(s.vals, i)
	}
	if s.stamps[i] != s.gen {
		s.stamps[i] = s.gen
		s.n++
	}
	s.vals[i] = v
}

// candSet is the candidate dedup set: a stampSet indexed by the candidate's
// root-scope slot (Miner.candSlot) whose value heads that slot's list of
// keys, in entries. A root scope carries a few candidates at most, one per
// extension kind, extended dimension and pattern type, so a lookup walks a
// short list and hashes nothing. The entries are one array, emptied with
// the set and reused by the next run; nothing is sized to the table.
type candSet struct {
	heads   stampSet[int32]
	entries []candEntry
}

// candEntry is one key of a slot's list: the parts of candKey the slot does
// not fix, and the index of the next entry (-1 ends the list).
type candEntry struct {
	ptype int32
	next  int32
	ext   uint16
	kind  uint8
}

func (s *candSet) reset() {
	s.heads.reset()
	s.entries = s.entries[:0]
}

// add adds key k at slot i and reports whether it was absent. Two keys at
// one slot share their scope: the slot is a function of it, and for
// subspace and breakdown extension holds its measure ordinal, while measure
// extension, whose key has none, has a slot of its own.
func (s *candSet) add(i uint64, k candKey) bool {
	head, ok := s.heads.get(i)
	if !ok {
		head = -1
	}
	for e := head; e >= 0; e = s.entries[e].next {
		if x := &s.entries[e]; x.kind == k.kind && x.ext == k.ext && x.ptype == k.ptype {
			return false
		}
	}
	s.entries = append(s.entries, candEntry{ptype: k.ptype, next: head, ext: k.ext, kind: k.kind})
	s.heads.put(i, int32(len(s.entries)-1))
	return true
}

// grow returns xs extended to hold index i, at least doubling its length
// when it must grow, with the new elements zero.
func grow[T any](xs []T, i uint64) []T {
	if i < uint64(len(xs)) {
		return xs
	}
	return append(xs, make([]T, max(i+1, 2*uint64(len(xs)))-uint64(len(xs)))...)
}

func (a *accounting) charge(cost float64) {
	a.cost += cost
	a.costNanos += int64(cost * 1e9)
}

// store simulates a query-cache Put of unit u under id, replacing any
// previous entry.
func (a *accounting) store(id cache.UnitID, u cache.Unit) {
	i := a.unitIndex(id)
	bytes := u.ApproxBytes(a.dims[id.Breakdown()].Domain())
	old, _ := a.qc.get(i)
	a.qcBytes += bytes - old
	a.qc.put(i, bytes)
}

// cached reports whether the simulated query cache holds unit id.
func (a *accounting) cached(id cache.UnitID) bool {
	_, ok := a.qc.get(a.unitIndex(id))
	return ok
}

// label renders a unit id as a trace label, matching DataScope.Key's
// "subspace|breakdown" shape.
func (a *accounting) label(id cache.UnitID) string {
	k := a.eng.UnitKeyOf(id)
	return k.Subspace + "|" + k.Breakdown
}

// applyUnit replays one unit query of id: a cached unit is served, a
// missing one is scanned (counted, charged at cost) and stored.
func (a *accounting) applyUnit(id cache.UnitID, cost float64) {
	if !a.qcEnabled {
		a.qcMisses++
		a.charge(cost)
		if a.traced {
			a.obs.Event(obs.EvQueryExec, a.label(id), "query-cache disabled", cost)
		}
		return
	}
	if a.cached(id) {
		a.qcHits++
		if a.traced {
			a.obs.Event(obs.EvCacheHit, a.label(id), "query-cache", 0)
		}
		return
	}
	a.qcMisses++
	a.charge(cost)
	// The memo holds every unit a worker recorded, once any scan of it in
	// flight ends (UnitOf waits for that scan).
	u, _ := a.eng.UnitOf(id)
	a.store(id, u)
	if a.traced {
		label := a.label(id)
		a.obs.Event(obs.EvCacheMiss, label, "query-cache", 0)
		a.obs.Event(obs.EvQueryExec, label, "", cost)
	}
}

// apply replays one usage event.
func (a *accounting) apply(ev usageEvent) {
	switch ev.kind {
	case useUnit:
		a.applyUnit(ev.id, ev.cost)
	case useEval:
		if a.pcEnabled {
			i := a.scopeIndex(ev.scope)
			if _, ok := a.pc.get(i); ok {
				a.pcHits++
				if a.traced {
					a.obs.Event(obs.EvCacheHit, a.eng.ScopeKeyOf(ev.scope).String(), "pattern-cache", 0)
				}
				return
			}
			a.pc.put(i, struct{}{})
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
			for d := range a.dims {
				if ev.h.Has(d) {
					continue
				}
				id := a.eng.UnitIDAt(ev.h, d)
				if a.cached(id) {
					if a.traced {
						a.obs.Event(obs.EvCacheHit, a.label(id), "impact-probe", 0)
					}
					return
				}
			}
		}
		a.applyUnit(ev.id, ev.cost)
	case useSiblings:
		a.applySiblings(ev)
	}
}

// applySiblings replays one augmented-prefetch decision: skipped when every
// sibling unit (the HDS's scopes) is cached, else one augmented scan that
// populates the sibling group with its non-empty units.
func (a *accounting) applySiblings(ev usageEvent) {
	bdim, card := int(ev.bdim), a.dims[ev.ext].Cardinality()
	sibling := func(code int) cache.UnitID { return a.eng.UnitIDAt(ev.h.With(int(ev.ext), code), bdim) }
	missing := false
	for code := 0; code < card; code++ {
		if !a.cached(sibling(code)) {
			missing = true
			break
		}
	}
	rep := ""
	if a.traced && card > 0 {
		rep = a.label(sibling(0))
	}
	if !missing {
		// Every sibling unit cached: the prefetch is skipped.
		if a.traced {
			a.obs.Event(obs.EvCacheHit, rep, "prefetch skipped: all siblings cached", 0)
		}
		return
	}
	a.augmented++
	a.charge(ev.cost)
	stored := 0
	for code := 0; code < card; code++ {
		id := sibling(code)
		if u, ok := a.eng.UnitOf(id); ok && u.Len() > 0 {
			a.store(id, u)
			stored++
		}
	}
	if a.traced {
		a.obs.Event(obs.EvQueryExec, rep,
			fmt.Sprintf("augmented prefetch: %d siblings", stored), ev.cost)
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
		Entries: a.qc.n,
		Bytes:   a.qcBytes,
	}
}

// patternStats reports the simulated pattern cache as cache.Stats; Table 3
// sizes the pattern cache by entries, so Bytes stays zero.
func (a *accounting) patternStats() cache.Stats {
	return cache.Stats{
		Hits:    a.pcHits,
		Misses:  a.pcMisses,
		Entries: a.pc.n,
	}
}
