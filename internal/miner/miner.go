// Package miner implements the MetaInsight mining procedure of Section 4.2:
// pattern-guided search over data scopes, one impact-ordered queue of the
// data-pattern and MetaInsight compute units, augmented-query prefetching
// through the query cache, pattern-cache memoization of evaluations, the two
// pruning rules, and a progressive budget. The procedure is decomposed into
// the paper's three functionalities — search (subspace expansion), query
// (internal/engine + internal/cache) and evaluation (internal/pattern +
// internal/core) — wired together by a dispatcher and a worker pool.
//
// Concurrency model: workers execute compute units speculatively and purely.
// They touch no shared miner state; all data access goes through the
// engine's single-flighted paths, which charge nothing (so two workers never
// scan the same unit twice concurrently), and every logical query or
// evaluation the unit performs is recorded as a usage event (see usage.go).
// The dispatcher — the only goroutine that mutates miner state — commits
// completed units in canonical order (the order a single worker would
// process them) and replays their usage events against a simulated cache.
// Statistics, budget spending, result deduplication and MetaInsight emission
// therefore need no locks and are bit-identical for any worker count.
package miner

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"metainsight/internal/cache"
	"metainsight/internal/core"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// Budget bounds a progressive mining run (Section 4.2): once it is spent the
// miner returns its best-so-far results. The zero value is unlimited, and at
// most one field is set.
type Budget struct {
	// Cost, when positive, bounds the run by the deterministic cost units the
	// commit-order replay charges (engine.ScanCostAt, engine.EvaluationCost),
	// so two runs with the same configuration stop at the same commit — the
	// denomination of the reproduction benches (DESIGN.md, substitution 1).
	Cost float64
	// Deadline, when set, bounds the run by wall-clock time, as the paper's
	// deployment does (interactive EDA within a pre-specified time budget).
	Deadline time.Time
}

// Config configures a mining run.
type Config struct {
	// Tau is the commonness threshold τ of Definition 3.5, which also sets
	// the score's S* term (Lemma 4.1); zero is the paper's 0.5. The other
	// scoring parameters, k, r and γ, are the paper's constants.
	Tau float64
	// Pattern registers custom pattern types beside the paper's eleven; the
	// zero value registers none.
	Pattern pattern.Config
	// MaxSubspaceFilters caps the number of non-empty filters in a subspace;
	// the paper's configuration uses 3.
	MaxSubspaceFilters int
	// MaxBreakdownCardinality skips dimensions with larger domains during
	// expansion — both as breakdown dimensions and as filter dimensions
	// (unbounded if 0). Very high-cardinality breakdowns produce unreadable
	// charts, and high-cardinality filter dimensions explode the subspace
	// frontier; both dominate cost.
	MaxBreakdownCardinality int
	// MinImpact is Pruning 2's threshold: MetaInsight compute units whose
	// g(Impact_HDS) falls below it are discarded (the paper suggests 0.01).
	// Set negative to disable.
	MinImpact float64
	// MinSubspaceImpact prunes the subspace search frontier: children whose
	// impact falls below it are not explored. It must be at most MinImpact
	// for Pruning 2 to remain meaningful (an HDS's impact is never below its
	// anchor subspace's). Set negative to disable.
	MinSubspaceImpact float64
	// Workers is the number of evaluation goroutines; the paper uses 8.
	// Worker count affects only wall-clock time: results, statistics and
	// budget consumption are identical for any value.
	Workers int
	// UsePriorityQueues selects impact order (true, the paper's design) or
	// FIFO order (the Figure 6 ablation baseline) for the pending work.
	UsePriorityQueues bool
	// EnableQueryCache and EnablePatternCache turn the paper's query cache
	// and pattern cache on in the run's accounting; turning one off is
	// Figure 6's "w/o Query Cache" or "w/o Pattern Cache" ablation. They
	// decide what the commit-order replay charges (usage.go) and whether a
	// subspace extension is prefetched with one augmented query; the
	// engine's physical memos keep what they compute either way.
	EnableQueryCache   bool
	EnablePatternCache bool
	// EnablePruning1 enables early termination of HDP evaluation once no
	// commonness can reach τ.
	EnablePruning1 bool
	// EnablePruning2 enables discarding low-impact MetaInsight units.
	EnablePruning2 bool
	// EnableBoundPruning cuts frontier work using the engine's precomputed
	// impact-sum bounds (engine.ImpactShareUpperBoundAt / DimMaxImpactShareAt)
	// before any query is issued: a subspace-extension whose root-subspace
	// impact bound cannot reach MinImpact is never emitted (the Pruning 2
	// check would discard it after the scan anyway), and an expansion
	// dimension whose heaviest value cannot reach MinSubspaceImpact is never
	// scanned (every child it could produce would be filtered). Both bounds
	// are sound upper bounds on the true impact, so the mined MetaInsights
	// are identical with the flag on or off — only the query/cost accounting
	// differs (fewer scans, counted in Stats.BoundSkips/BoundScanSkips). The
	// cut decisions are pure functions of the immutable table and the
	// configuration, so they are worker-count-invariant.
	// When the bounds are unsound (SUM impact over a column with negative
	// values) they return the trivial bound and the cuts never fire.
	EnableBoundPruning bool
	// Budget bounds the run; the zero value is unlimited. It is checked
	// before each unit commit, so a run stops on a whole-unit boundary.
	Budget Budget
	// OnMetaInsight, when set, is invoked once for each newly stored
	// MetaInsight as the progressive mining run discovers it. Calls are made
	// serially from the dispatcher goroutine, in deterministic discovery
	// (commit) order.
	OnMetaInsight func(*core.MetaInsight)
	// Observer, when non-nil, receives run observability: metric counters
	// and trace events recorded on the dispatcher's serial commit path (so
	// trace order is the deterministic commit order), and phase timers
	// accumulated via atomics. Observation is inert: results, statistics and
	// budget spending are bit-identical with the observer on or off.
	Observer *obs.Observer
	// PatternsFirst orders every MetaInsight compute unit after all pending
	// data-pattern work, following the sequential reading of the paper's
	// workflow (the data pattern mining module feeds the MetaInsight mining
	// module). The default (false) is the best-effort progressive order: one
	// merged impact order over all units, which lets
	// augmented-query prefetches also serve upcoming data-pattern units —
	// strictly fewer executed queries, at the price of deviating from the
	// paper's two-module accounting (see the Figure 7 experiment).
	PatternsFirst bool
}

// DefaultConfig mirrors the paper's configuration: depth-3 subspaces,
// 8 workers, impact order, both prunings, τ = 0.5 scoring.
func DefaultConfig() Config {
	return Config{
		Tau:                     0.5,
		Pattern:                 pattern.DefaultConfig(),
		MaxSubspaceFilters:      3,
		MaxBreakdownCardinality: 50,
		MinImpact:               0.01,
		MinSubspaceImpact:       0.005,
		Workers:                 8,
		UsePriorityQueues:       true,
		EnableQueryCache:        true,
		EnablePatternCache:      true,
		EnablePruning1:          true,
		EnablePruning2:          true,
		EnableBoundPruning:      true,
	}
}

// Stats aggregates counters from one mining run. All counters reflect
// committed compute units only and are identical for any Workers value.
type Stats struct {
	ExpandUnits      int64 // subspace expansions processed
	DataPatternUnits int64 // data-pattern compute units processed
	MetaInsightUnits int64 // MetaInsight compute units processed
	EmittedMIUnits   int64 // MetaInsight compute units emitted
	PatternsFound    int64 // valid (scope, type) basic data patterns
	Pruned1          int64 // HDP evaluations cut short by Pruning 1
	Pruned2          int64 // MetaInsight units discarded by Pruning 2
	// BoundSkips counts subspace-extension candidates cut by the impact-sum
	// bounds (Config.EnableBoundPruning) before their root-impact query was
	// issued; BoundScanSkips counts frontier expansion scans skipped because
	// the dimension's heaviest value could not reach MinSubspaceImpact. Both
	// cuts are result-identical to scan-then-prune, so these counters trade
	// one-for-one against queries, Pruned2 discards and empty child lists —
	// never against mined MetaInsights.
	BoundSkips     int64
	BoundScanSkips int64
	// PanickedUnits counts compute units whose evaluation panicked; each was
	// recovered on its worker and committed as failed-and-accounted (see
	// EvUnitPanic) instead of crashing the run. Panics are pure functions of
	// the unit and the data, so the count is worker-count-invariant.
	PanickedUnits int64
	// Evictions is reserved, always zero: the caches are unbounded and never
	// evict. Kept for the callers and wire formats that read it.
	Evictions int64
	// ShortSeriesSkips counts (scope, measure) series skipped for having
	// fewer than 3 points — expected data sparsity, not an error.
	ShortSeriesSkips int64
	// ExtractErrors counts series extractions that failed structurally
	// (missing measure column), previously conflated with short series.
	ExtractErrors    int64
	ExecutedQueries  int64
	AugmentedQueries int64
	CacheServed      int64
	CostUsed         float64
	// Cancelled reports that the run stopped early because its context was
	// cancelled; the result holds the best-so-far MetaInsights committed up
	// to the cancellation point.
	Cancelled         bool
	QueryCacheStats   cache.Stats
	PatternCacheStats cache.Stats
}

// Miner drives one mining run over an engine.
type Miner struct {
	eng *engine.Engine
	cfg Config

	// Per-table lookups resolved once: the interner's ordinal of each mined
	// measure (aligned with eng.Measures()) and, per table dimension index,
	// whether the dimension is temporal and its name.
	measureIDs []uint32
	temporal   []bool
	dimNames   []string

	// maxFinished bounds the speculation window's finished entries
	// (defaultMaxFinished; tests shrink it to run the full-window path).
	maxFinished int

	// stopping is set once the dispatcher stops committing (budget exhausted
	// or work drained); workers abort promptly, and their output is
	// discarded, never committed.
	stopping atomic.Bool

	// Dispatcher-owned state: written only by Run's dispatcher goroutine,
	// in commit order. No lock needed. The pending units are two heaps, both
	// ordered by canonicalBefore: the expansion and data-pattern units, and
	// the admitted MetaInsight candidates, kept as values.
	queue   canonHeap[*workUnit]
	miQueue canonHeap[miUnit]
	sets    *keySets // the run's key sets and pooled buffers
	free    []*specEntry
	stats   Stats
	seq     int64
	acct    *accounting
	busy    busyClock // the dispatcher's busy time, when observed
}

// New creates a Miner. The zero-value parts of cfg are filled with defaults.
func New(eng *engine.Engine, cfg Config) *Miner {
	def := DefaultConfig()
	if cfg.Tau == 0 {
		cfg.Tau = def.Tau
	}
	if cfg.MaxSubspaceFilters == 0 {
		cfg.MaxSubspaceFilters = def.MaxSubspaceFilters
	}
	if cfg.MaxBreakdownCardinality == 0 {
		cfg.MaxBreakdownCardinality = def.MaxBreakdownCardinality
	}
	if cfg.MinImpact == 0 {
		cfg.MinImpact = def.MinImpact
	}
	if cfg.MinSubspaceImpact == 0 {
		cfg.MinSubspaceImpact = def.MinSubspaceImpact
	}
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	m := &Miner{
		eng:         eng,
		cfg:         cfg,
		maxFinished: defaultMaxFinished,
		dimNames:    eng.Table().DimensionNames(),
	}
	m.queue.before = m.canonicalBefore
	m.miQueue.before = func(a, b miUnit) bool { return m.precedes(a.place(), b.place()) }
	m.measureIDs = eng.MeasureIDs()
	for _, d := range eng.Table().Dimensions() {
		m.temporal = append(m.temporal, d.Kind == model.KindTemporal)
	}
	return m
}

// completion is the output of one speculatively executed compute unit,
// applied by the dispatcher if and when the unit commits.
type completion struct {
	unit     *workUnit
	produced []*workUnit   // an expansion's children
	cands    []miCandidate // a data-pattern unit's MetaInsight candidates
	events   []usageEvent
	delta    statDelta
	// row is the candidate of a kindMetaInsight unit, when qualified is set.
	row       row
	qualified bool
	// panicked marks a unit whose process call panicked; panicVal carries the
	// rendered panic value. The unit commits as failed-and-accounted: no
	// events, no children, no MetaInsight.
	panicked bool
	panicVal string
	// entry is the window entry the worker was handed, so the dispatcher
	// files the completion without searching for it.
	entry *specEntry
}

// Run executes the mining procedure and returns all discovered MetaInsights.
func (m *Miner) Run() *Result { return m.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context, and its
// deadline against the clock, are checked at every unit-commit boundary (the
// same whole-unit granularity as budget checks), so a cancelled run stops
// promptly, never tears a commit in half, and returns the best-so-far results
// with Stats.Cancelled set.
func (m *Miner) RunContext(ctx context.Context) *Result {
	o := m.cfg.Observer
	initStart := time.Now()
	var gcStart time.Duration
	if o != nil {
		gcStart = gcCPU()
	}
	sets := keySetPool.Get().(*keySets)
	defer func() {
		sets.miQueue = m.miQueue.items[:0]
		m.sets, m.miQueue.items, m.free, m.acct.qc, m.acct.pc, m.acct.measPos = nil, nil, nil, nil, nil, nil
		sets.clear()
		keySetPool.Put(sets)
	}()
	m.sets, m.miQueue.items = sets, sets.miQueue
	m.acct = newAccounting(m.eng, m.cfg.EnableQueryCache, m.cfg.EnablePatternCache, m.cfg.Observer, sets)

	m.pushRoot()

	workCh := make(chan *specEntry)
	doneCh := make(chan *completion)
	var wg sync.WaitGroup
	for i := 0; i < m.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(scratch)
			if o != nil {
				sc.clock = new(workerClock)
				defer sc.clock.publish(o)
			}
			for e := range workCh {
				var t0 time.Time
				if o != nil {
					t0 = time.Now()
				}
				c := m.safeProcess(e.unit, sc)
				c.entry = e
				if o != nil {
					// Worker-side phase accounting is atomic-only and
					// therefore inert; totals are CPU time across workers.
					d := time.Since(t0)
					o.Phase(e.unit.kind.phase(), d)
					sc.clock.kind[e.unit.kind] += d
				}
				doneCh <- c
			}
		}()
	}
	o.Phase(obs.PhaseInit, time.Since(initStart))
	if o != nil {
		m.busy.mark = initStart
		m.busy.lap(&m.busy.dispatch)
	}

	// spec is the speculation window (see specEntry).
	spec := canonHeap[*specEntry]{before: func(a, b *specEntry) bool { return m.canonicalBefore(a.unit, b.unit) }}
	inflight := 0
	windowPeak := 0
	var spare *specEntry // an entry a lost send left unused

	// canonicalNext reports whether any unit is left and returns the window
	// entry of the unit a single-worker run would process next given the
	// committed state — the first, in canonical order, of the pending
	// units' top and the window's top — when it has already been
	// dispatched.
	canonicalNext := func() (left bool, entry *specEntry) {
		next, _, pending := m.pendingTop()
		if e := spec.top(); e != nil && (!pending || m.precedes(e.unit.place(), next)) {
			return true, e
		}
		return pending, nil
	}
	receive := func(c *completion) {
		c.entry.comp = c
		inflight--
	}

	// A deadline counts as passed when the clock says so, not only once the
	// context's timer has fired: on a loaded machine the timer can run late,
	// and the commits in between would then depend on the scheduler.
	deadline, hasDeadline := ctx.Deadline()
	for {
		if ctx.Err() != nil || hasDeadline && !time.Now().Before(deadline) {
			m.stats.Cancelled = true
			o.Event(obs.EvCancel, "", "context cancelled; returning best-so-far results", 0)
			break
		}
		if m.budgetSpent() {
			o.Event(obs.EvBudgetStop, "", fmt.Sprintf("cost=%.3f", m.acct.cost), 0)
			break
		}
		left, entry := canonicalNext()
		if !left && inflight == 0 {
			break
		}
		windowPeak = max(windowPeak, spec.Len())
		if entry != nil && entry.comp != nil {
			if o != nil {
				m.busy.lap(&m.busy.dispatch)
			}
			m.commit(entry.comp)
			spec.pop() // entry is the window's top
			*entry = specEntry{}
			m.free = append(m.free, entry)
			continue
		}
		// The head is still in flight or not yet dispatched: feed a worker if
		// there is room, else wait for a completion. The finished-entry bound
		// holds back only speculation past a head that is already in the
		// window; a head still in the queue is always dispatched, or the run
		// could not advance.
		var why waitReason
		switch {
		case inflight >= m.cfg.Workers:
			why = waitWorkersBusy
		case entry != nil && spec.Len()-inflight >= m.maxFinished:
			why = waitWindowFull
		case m.queue.Len() == 0 && m.miQueue.Len() == 0:
			why = waitQueueEmpty
		default:
			if spare == nil {
				spare = m.entry()
			}
			_, mi, _ := m.pendingTop()
			if mi {
				// An admitted candidate becomes a unit in the entry itself.
				top := &m.miQueue.items[0]
				spare.own = workUnit{kind: kindMetaInsight, priority: top.priority, seq: top.seq, cand: top.cand}
				spare.unit = &spare.own
			} else {
				spare.unit = m.queue.top()
			}
			select {
			case workCh <- spare:
				if mi {
					m.miQueue.pop()
				} else {
					m.queue.pop()
				}
				spec.push(spare)
				spare = nil
				inflight++
			case c := <-doneCh:
				receive(c)
			}
			continue
		}
		if inflight == 0 {
			break
		}
		if o == nil {
			receive(<-doneCh)
			continue
		}
		t0 := m.busy.lap(&m.busy.dispatch)
		c := <-doneCh
		m.busy.mark = time.Now()
		recordWait(o, why, inflight, m.busy.mark.Sub(t0))
		receive(c)
	}
	publishDispatch(o, windowPeak)

	m.stopping.Store(true)
	close(workCh)
	// Drain remaining in-flight units; their output is discarded (the
	// budget is spent), so it is never accounted.
	go func() {
		wg.Wait()
		close(doneCh)
	}()
	for c := range doneCh {
		recycle(c)
	}

	res := m.finish()
	if o != nil {
		m.busy.lap(&m.busy.finish)
		m.busy.publish(o)
		o.Count(obsProcessGC, int64(gcCPU()-gcStart))
	}
	return res
}

// canonicalBefore reports whether unit a precedes unit b in the canonical
// processing order (precedes).
func (m *Miner) canonicalBefore(a, b *workUnit) bool { return m.precedes(a.place(), b.place()) }

// precedes reports whether a unit at place a precedes one at place b in the
// canonical processing order, the only definition of that order: the two
// pending heaps and the speculation window are all ordered by it. Under
// priority order it is priority descending with seq as tie-breaker; under
// FIFO it is seq, the emission order. Under PatternsFirst any pattern-side
// unit precedes every MetaInsight unit — the paper's data pattern module
// feeding the MetaInsight module. Priorities are never NaN (engine.New
// rejects a non-finite impact total) and seq is unique among live units, so
// this is a strict total order.
func (m *Miner) precedes(a, b place) bool {
	if m.cfg.PatternsFirst && a.mi != b.mi {
		return b.mi
	}
	if m.cfg.UsePriorityQueues && a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// pendingTop returns the place of the first pending unit in canonical
// order, whether it is an admitted MetaInsight candidate (the top of
// miQueue) rather than the top of queue, and whether any unit is pending.
func (m *Miner) pendingTop() (p place, mi, ok bool) {
	if m.miQueue.Len() > 0 {
		p, mi, ok = m.miQueue.items[0].place(), true, true
	}
	if u := m.queue.top(); u != nil && (!ok || m.precedes(u.place(), p)) {
		p, mi, ok = u.place(), false, true
	}
	return p, mi, ok
}

// entry returns an empty window entry, reusing one a commit freed.
func (m *Miner) entry() *specEntry {
	if n := len(m.free); n > 0 {
		e := m.free[n-1]
		m.free = m.free[:n-1]
		return e
	}
	return new(specEntry)
}

// commitCostBounds buckets the per-commit replayed cost (deterministic cost
// units, so the histogram itself is worker-count-invariant).
var commitCostBounds = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250}

// commit applies one completed unit in canonical order: replay its usage
// events against the simulated cache (charging the ledger), fold its
// counters, filter and enqueue its children, and record its MetaInsight.
// All observability recording here runs on the dispatcher goroutine, so the
// trace reads as the deterministic canonical execution.
func (m *Miner) commit(c *completion) {
	o := m.cfg.Observer
	traced := o.Tracing()
	var start time.Time
	var costBefore float64
	if o != nil {
		start = m.busy.mark
		costBefore = m.acct.cost
	}
	if traced {
		o.Event(obs.EvPop, m.describeUnit(c.unit), c.unit.kind.String(), 0)
	}
	defer recycle(c)
	if c.panicked {
		// Failed-and-accounted: the unit's kind counter still advances (it
		// was processed), but it contributes no usage, children or result.
		m.stats.ExpandUnits += c.delta.expandUnits
		m.stats.DataPatternUnits += c.delta.dataPatternUnits
		m.stats.MetaInsightUnits += c.delta.metaInsightUnits
		m.stats.PanickedUnits++
		if o != nil {
			o.Count("miner.units.expand", c.delta.expandUnits)
			o.Count("miner.units.datapattern", c.delta.dataPatternUnits)
			o.Count("miner.units.metainsight", c.delta.metaInsightUnits)
			o.Count("miner.units.panicked", 1)
			if traced {
				o.Event(obs.EvUnitPanic, m.describeUnit(c.unit), c.panicVal, 0)
			}
			o.Observe("miner.commit.cost_units", commitCostBounds, 0)
			o.Phase(obs.PhaseCommit, m.busy.lap(&m.busy.commit).Sub(start))
		}
		return
	}
	for _, ev := range c.events {
		m.acct.apply(ev)
	}
	if o != nil {
		m.busy.lap(&m.busy.replay)
	}
	m.stats.ExpandUnits += c.delta.expandUnits
	m.stats.DataPatternUnits += c.delta.dataPatternUnits
	m.stats.MetaInsightUnits += c.delta.metaInsightUnits
	m.stats.PatternsFound += c.delta.patternsFound
	m.stats.Pruned1 += c.delta.pruned1
	m.stats.BoundSkips += c.delta.boundSkips
	m.stats.BoundScanSkips += c.delta.boundScanSkips
	m.stats.ShortSeriesSkips += c.delta.shortSeriesSkips
	m.stats.ExtractErrors += c.delta.extractErrors
	if o != nil {
		o.Count("miner.units.expand", c.delta.expandUnits)
		o.Count("miner.units.datapattern", c.delta.dataPatternUnits)
		o.Count("miner.units.metainsight", c.delta.metaInsightUnits)
		o.Count("miner.patterns.found", c.delta.patternsFound)
		o.Count("miner.pruned1", c.delta.pruned1)
		o.Count("miner.bound_skips", c.delta.boundSkips)
		o.Count("miner.bound_scan_skips", c.delta.boundScanSkips)
		if traced && c.delta.pruned1 > 0 {
			o.Event(obs.EvPrune, m.describeUnit(c.unit), "pruning1", 0)
		}
	}

	for _, u := range c.produced {
		m.seq++
		u.seq = m.seq
		m.queue.push(u)
	}
	for i := range c.cands {
		// Identity dedup and Pruning 2 are commit-time decisions so the
		// first candidate in canonical order wins, independent of which
		// worker raced where. Only an admitted candidate becomes a unit.
		cand := &c.cands[i]
		if !m.sets.seen.add(m.candSlot(cand.key), cand.key) {
			o.Count("miner.dedup", 1)
			if traced {
				o.Event(obs.EvDedup, m.candLabel(cand.key), "", 0)
			}
			continue
		}
		if m.cfg.EnablePruning2 && minClamp(cand.impact) < m.cfg.MinImpact {
			m.stats.Pruned2++
			o.Count("miner.pruned2", 1)
			if traced {
				o.Event(obs.EvPrune, m.candLabel(cand.key), "pruning2", 0)
			}
			continue
		}
		m.stats.EmittedMIUnits++
		m.seq++
		m.miQueue.push(miUnit{priority: cand.impact, seq: m.seq, cand: *cand})
	}

	if c.qualified {
		// The dedup above admitted each key once, so every row is new.
		m.sets.rows = append(m.sets.rows, c.row)
		o.Count("miner.stored", 1)
		if traced {
			o.Event(obs.EvStore, m.candLabel(c.row.key), fmt.Sprintf("score=%.6f", c.row.score), 0)
		}
		if m.cfg.OnMetaInsight != nil {
			m.cfg.OnMetaInsight(m.build(&c.row))
		}
	}

	if o != nil {
		o.Observe("miner.commit.cost_units", commitCostBounds, m.acct.cost-costBefore)
		o.Phase(obs.PhaseCommit, m.busy.lap(&m.busy.commit).Sub(start))
	}
}

// describeUnit renders a compact, deterministic trace label for a unit.
func (m *Miner) describeUnit(u *workUnit) string {
	switch u.kind {
	case kindExpand:
		return u.handle.Key()
	case kindDataPattern:
		return u.handle.Key() + "|" + u.breakdown
	case kindMetaInsight:
		return m.candLabel(u.cand.key)
	default:
		return "?"
	}
}

// candLabel renders a candidate key as the MetaInsight identity key it
// stands for (core.HDSKey plus the pattern type), byte for byte the key of
// the MetaInsight built from it.
func (m *Miner) candLabel(k candKey) string { return string(m.appendLabel(nil, k)) }

// appendLabel appends candLabel(k) to b.
func (m *Miner) appendLabel(b []byte, k candKey) []byte {
	sk := m.eng.ScopeKeyOf(k.scope)
	b = core.AppendHDSKey(b, model.ExtensionKind(k.kind), sk.Unit.Subspace, m.dimNames[k.ext], sk.Unit.Breakdown, sk.Measure)
	return append(append(b, '|'), pattern.Type(k.ptype).String()...)
}

// candSlot is the dedup set's slot of candidate key k: its root scope's
// index in the layout of the replay's simulated pattern cache, with one
// more slot per unit for measure extension, whose key names no measure.
func (m *Miner) candSlot(k candKey) uint64 {
	a := m.acct
	pos := a.nMeas
	if model.ExtensionKind(k.kind) != model.ExtendMeasure {
		pos = uint64(a.measPos[k.scope.Measure()])
	}
	return a.unitIndex(k.scope.Unit())*(a.nMeas+1) + pos
}

// keySets are a run's three key sets — the candidate dedup set and the
// replay's simulated query and pattern caches, with the pattern cache's
// measure layout — and its dispatcher's buffers: the rows before finish
// copies them out, the pending MetaInsight candidates and the keys of a
// score tie. Each grows to thousands of entries in a run and is empty at
// the start of one, so a finished run empties them and leaves them for the
// next; they hold no pointer, so they cost the collector nothing to mark.
type keySets struct {
	seen    candSet
	qc      stampSet[int64]
	pc      stampSet[struct{}]
	measPos []uint32
	rows    []row
	miQueue []miUnit
	labels  []byte // the keys finish renders for a score tie
}

func (s *keySets) clear() {
	s.seen.reset()
	s.qc.reset()
	s.pc.reset()
	s.rows = s.rows[:0]
}

var keySetPool = sync.Pool{New: func() any {
	s := new(keySets)
	s.clear()
	return s
}}

// completions holds completions the dispatcher has committed or discarded,
// with their buffers, for the next units any run's workers execute.
var completions = sync.Pool{New: func() any { return new(completion) }}

// completionFor returns an empty completion for unit u, with the buffers of
// a recycled one when there is one.
func completionFor(u *workUnit) *completion {
	c := completions.Get().(*completion)
	c.unit = u
	return c
}

// recycle returns a completion to the pool once the dispatcher is done with
// it, committed or discarded. It keeps the buffers, emptied, and drops
// every reference they held.
func recycle(c *completion) {
	clear(c.produced)
	clear(c.cands)
	clear(c.events)
	*c = completion{produced: c.produced[:0], cands: c.cands[:0], events: c.events[:0]}
	completions.Put(c)
}

// pushRoot seeds the search with the empty-subspace expansion unit.
func (m *Miner) pushRoot() {
	m.queue.push(&workUnit{
		kind:      kindExpand,
		priority:  1,
		subspace:  model.EmptySubspace,
		handle:    m.eng.Intern(model.EmptySubspace),
		impact:    1,
		maxDimIdx: -1,
	})
}

// budgetSpent reports whether the run's budget is used up. The ledger it
// reads is the dispatcher's own, and so is every call.
func (m *Miner) budgetSpent() bool {
	b := m.cfg.Budget
	return b.Cost > 0 && float64(m.acct.costNanos)/1e9 >= b.Cost ||
		!b.Deadline.IsZero() && time.Now().After(b.Deadline)
}

func (m *Miner) finish() *Result {
	m.sortRows()
	res := &Result{rows: slices.Clone(m.sets.rows), m: m}
	// The result keeps the miner to build its MetaInsights; nothing pending
	// is kept with it.
	m.queue.items = nil
	m.stats.ExecutedQueries = m.acct.qcMisses + m.acct.augmented
	m.stats.AugmentedQueries = m.acct.augmented
	m.stats.CacheServed = m.acct.qcHits
	m.stats.CostUsed = float64(m.acct.costNanos) / 1e9
	m.stats.QueryCacheStats = m.acct.queryStats()
	m.stats.PatternCacheStats = m.acct.patternStats()
	if o := m.cfg.Observer; o != nil {
		// End-of-run gauges carry the canonical (worker-count-invariant)
		// accounting; the live counters above track progressive commit-side
		// progress and the engine.physical.* counters real machine work.
		o.SetGauge("miner.cost_used", m.stats.CostUsed)
		o.SetGauge("miner.queries.executed", float64(m.stats.ExecutedQueries))
		o.SetGauge("miner.queries.augmented", float64(m.stats.AugmentedQueries))
		o.SetGauge("miner.queries.cache_served", float64(m.stats.CacheServed))
		o.SetGauge("miner.qcache.hit_rate", m.stats.QueryCacheStats.HitRate())
		o.SetGauge("miner.qcache.entries", float64(m.stats.QueryCacheStats.Entries))
		o.SetGauge("miner.qcache.bytes", float64(m.stats.QueryCacheStats.Bytes))
		o.SetGauge("miner.pcache.hit_rate", m.stats.PatternCacheStats.HitRate())
		o.SetGauge("miner.pcache.entries", float64(m.stats.PatternCacheStats.Entries))
		// Past a budget, speculative units evaluate scopes that no commit
		// reads, as many as the workers got to.
		o.MarkTiming(obsEvaluations)
	}
	res.Stats = m.stats
	return res
}

// sortRows puts the rows in result order: score descending, ties in
// identity-key order. Keys are rendered only for the rows of a tie, into
// one pooled buffer.
func (m *Miner) sortRows() {
	rows := m.sets.rows
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(b.score, a.score) })
	type labelled struct {
		at, end int // the key in labels
		r       row
	}
	var tie []labelled
	labels := m.sets.labels
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].score == rows[i].score {
			j++
		}
		if j-i > 1 {
			tie, labels = tie[:0], labels[:0]
			for _, r := range rows[i:j] {
				at := len(labels)
				labels = m.appendLabel(labels, r.key)
				tie = append(tie, labelled{at, len(labels), r})
			}
			slices.SortFunc(tie, func(a, b labelled) int { return bytes.Compare(labels[a.at:a.end], labels[b.at:b.end]) })
			for k, l := range tie {
				rows[i+k] = l.r
			}
		}
		i = j
	}
	m.sets.labels = labels
}

// safeProcess runs process under a recover barrier: a panicking pattern
// evaluator (e.g. an unregistered custom type) takes down one unit, not the
// process. The recovered completion is fresh — whatever partial events or
// children process accumulated are discarded, so the commit is a pure
// function of the unit — and carries only the kind counter plus the panic
// value. Panics are deterministic (pure functions of unit + data; the
// memos re-raise a computation's panic in every caller waiting on it), so
// the same units panic at every worker count.
func (m *Miner) safeProcess(u *workUnit, sc *scratch) (c *completion) {
	defer func() {
		if r := recover(); r != nil {
			c = &completion{unit: u, panicked: true, panicVal: panicLabel(r)}
			switch u.kind {
			case kindExpand:
				c.delta.expandUnits++
			case kindDataPattern:
				c.delta.dataPatternUnits++
			case kindMetaInsight:
				c.delta.metaInsightUnits++
			}
		}
	}()
	return m.process(u, sc)
}

// panicLabel renders a panic value as a bounded trace detail. Values that
// stringify pointers are not stable across processes; tests and evaluators
// should panic with strings or errors when the label matters.
func panicLabel(r any) string {
	s := fmt.Sprint(r)
	const maxLen = 256
	if len(s) > maxLen {
		s = s[:maxLen] + "..."
	}
	return s
}

// scratch is one worker's reusable buffers: what a unit needs while it runs
// and nothing its completion keeps.
type scratch struct {
	exts   []extension
	refs   []scopeRef
	peeked []cache.Unit
	tally  tally
	// layout is the column layout of the last unit the worker classified,
	// and cols the run's measures' source columns in it
	// (engine.SourceColumns).
	layout *cache.Columns
	cols   []int
	// patterns collects a build's patterns; a worker leaves it nil.
	patterns []core.DataPattern
	clock    *workerClock // nil unless the run is observed
}

// columns returns, per measure of the run, the Data column unit holds for
// it or -1 where it holds none, resolving each unit layout once.
func (sc *scratch) columns(m *Miner, unit cache.Unit) []int {
	if unit.Cols != sc.layout || sc.cols == nil {
		sc.layout, sc.cols = unit.Cols, engine.SourceColumns(sc.cols[:0], unit.Cols, m.eng.Measures())
	}
	return sc.cols
}

// evaluated files the time since start as a MetaInsight unit's scope loop,
// when the run is observed.
func (sc *scratch) evaluated(start time.Time) {
	if sc.clock != nil {
		sc.clock.evaluate += time.Since(start)
	}
}

// process executes one compute unit speculatively: pure data work plus a
// recording of the usage it performed. It runs on a worker goroutine and
// touches no dispatcher-owned state.
func (m *Miner) process(u *workUnit, sc *scratch) *completion {
	c := completionFor(u)
	rec := &recorder{events: c.events}
	switch u.kind {
	case kindExpand:
		c.delta.expandUnits++
		c.produced = m.processExpand(c.produced, u, rec, &c.delta)
	case kindDataPattern:
		c.delta.dataPatternUnits++
		c.cands = m.processDataPattern(c.cands, u, rec, sc, &c.delta)
	case kindMetaInsight:
		c.delta.metaInsightUnits++
		c.row, c.qualified = m.processMetaInsight(u, rec, sc, &c.delta)
	default:
		panic("miner: unknown unit kind")
	}
	c.events = rec.events
	return c
}

// processExpand appends to produced the data-pattern compute units for a
// subspace and, if the subspace is not at maximum depth, its child subspaces
// with their impacts (computed from one group-by unit per expandable
// dimension — the same units the data-pattern module will need, so the scans
// are shared through the query cache).
func (m *Miner) processExpand(produced []*workUnit, u *workUnit, rec *recorder, delta *statDelta) []*workUnit {
	dims := m.eng.Table().Dimensions()

	for idx, col := range dims {
		if u.handle.Has(idx) {
			continue
		}
		if col.Cardinality() < 3 {
			continue // too few groups for any pattern criterion
		}
		if m.cfg.MaxBreakdownCardinality > 0 && col.Cardinality() > m.cfg.MaxBreakdownCardinality {
			continue
		}
		produced = append(produced, &workUnit{
			kind:      kindDataPattern,
			priority:  u.impact,
			subspace:  u.subspace,
			handle:    u.handle,
			impact:    u.impact,
			breakdown: col.Name,
			bdim:      idx,
		})
	}

	if u.handle.Len() >= m.cfg.MaxSubspaceFilters {
		return produced
	}
	cost := m.eng.ScanCostAt(u.handle)
	for idx := u.maxDimIdx + 1; idx < len(dims); idx++ {
		if m.stopping.Load() {
			break
		}
		dim := dims[idx]
		if u.handle.Has(idx) {
			continue
		}
		if m.cfg.MaxBreakdownCardinality > 0 && dim.Cardinality() > m.cfg.MaxBreakdownCardinality {
			continue
		}
		if m.cfg.EnableBoundPruning && m.cfg.MinSubspaceImpact > 0 &&
			m.eng.DimMaxImpactShareAt(idx) < m.cfg.MinSubspaceImpact {
			// Even the dimension's heaviest value cannot reach the frontier
			// threshold, so every child this scan could produce would be
			// filtered below: skip the group-by entirely.
			delta.boundScanSkips++
			continue
		}
		unit := m.eng.MaterializeUnitAt(u.handle, idx, nil)
		rec.recordUnit(m.eng.UnitIDAt(u.handle, idx), cost)
		src, total := m.eng.GroupImpactsAt(u.handle, idx, unit), m.eng.TotalImpact()
		for gi, code := range unit.Codes {
			imp := src[gi] / total
			if imp < m.cfg.MinSubspaceImpact {
				continue
			}
			child := u.handle.With(idx, int(code))
			produced = append(produced, &workUnit{
				kind:      kindExpand,
				priority:  imp,
				subspace:  child.Subspace(),
				handle:    child,
				impact:    imp,
				maxDimIdx: idx,
			})
		}
	}
	return produced
}

// processDataPattern evaluates every measure and pattern type on one
// (subspace, breakdown) scope family and appends to cands the MetaInsight
// compute-unit candidates of each discovered basic data pattern
// (pattern-guided mining, Figure 4). Candidate dedup and Pruning 2 happen at
// commit time.
func (m *Miner) processDataPattern(cands []miCandidate, u *workUnit, rec *recorder, sc *scratch, delta *statDelta) []miCandidate {
	measures := m.eng.Measures()
	rec.grow(1 + len(measures))
	// One unit fetch serves every measure of the scope family (the cache
	// unit spans all measures, Figure 5).
	cost := m.eng.ScanCostAt(u.handle)
	id := m.eng.UnitIDAt(u.handle, u.bdim)
	unit := m.eng.MaterializeUnitAt(u.handle, u.bdim, nil)
	rec.recordUnit(id, cost)
	cols := sc.columns(m, unit)
	for i, meas := range measures {
		if cols[i] < 0 {
			// Structural extraction failure (e.g. unknown measure column) —
			// counted separately from ordinary data sparsity.
			delta.extractErrors++
			continue
		}
		if unit.Len() < 3 {
			delta.shortSeriesSkips++
			continue
		}
		ds := model.DataScope{Subspace: u.subspace, Breakdown: u.breakdown, Measure: meas}
		se := m.evaluateScope(rec, id.Scope(m.measureIDs[i]), unit, ds, m.temporal[u.bdim])
		// The extension candidates depend on the anchor scope only, so they
		// are built once and emitted under every type that holds.
		exts := sc.exts[:0]
		for j, h := range se.Holds {
			delta.patternsFound++
			if j == 0 {
				exts = m.extensions(exts, u)
			}
			cands = m.emitCandidates(cands, rec, exts, u, i, h.Type, delta)
		}
		sc.exts = exts
	}
	return cands
}

// obsEvaluations counts the scope evaluations a run actually performed, the
// pattern-side twin of engine.physical.scans: a scope some earlier request
// over the same pattern memo evaluated counts nothing.
const obsEvaluations = "pattern.physical.evaluations"

// evaluateScope runs (or recalls) the all-types evaluation of one data scope
// through the pattern cache, recording the evaluation for canonical
// accounting. The scope is keyed by its id, and the series is extracted from
// the unit (whose layout holds the measure) only when the evaluation
// actually runs, which the observer counts as obsEvaluations. Concurrent
// evaluations of the same scope share one. A build (nil rec) records and
// counts nothing.
func (m *Miner) evaluateScope(rec *recorder, id cache.ScopeID, unit cache.Unit, ds model.DataScope, temporal bool) *pattern.ScopeEvaluation {
	se := m.eng.PatternCache().Do(id, func() *pattern.ScopeEvaluation {
		if rec != nil {
			m.cfg.Observer.Count(obsEvaluations, 1)
		}
		series, _ := m.eng.Extract(unit, ds)
		return pattern.EvaluateAllScoped(ds, series.Keys, series.Values, temporal, m.cfg.Pattern)
	})
	if rec != nil {
		rec.recordEval(id)
	}
	return se
}

// extension is one HDS extended from an anchor data scope, with everything
// emitting it under a pattern type needs. Extensions are built once per
// anchor and read by the candidates of every valid type.
type extension struct {
	kind   model.ExtensionKind
	ext    int            // the extended dimension's index (subspace extension)
	root   *engine.Handle // the HDS root subspace (core.HDS.RootSubspace)
	n      int            // HDS size
	impact float64        // Impact_HDS

	// probe is the root-impact lookup of a subspace extension (the zero
	// probe otherwise); it is recorded once per emitting type, as a
	// sequential execution would perform it. skipped marks an extension the
	// impact-sum bound cut before that lookup, which emits no candidate.
	probe   engine.ImpactProbe
	skipped bool
}

// extensions appends to exts the three extension strategies applied to the
// anchor scope of data-pattern unit u, in emission order: one subspace
// extension per filter, then measure, then breakdown.
func (m *Miner) extensions(exts []extension, u *workUnit) []extension {
	tab := m.eng.Table()
	h := u.handle

	// Subspace extending: one HDS per non-empty filter of the anchor subspace.
	for _, f := range u.subspace {
		extIdx := tab.DimensionIndex(f.Dim)
		if extIdx < 0 {
			continue
		}
		card := tab.Dimensions()[extIdx].Cardinality()
		if card < 2 {
			continue
		}
		// Impact_HDS = Impact(subspace without the extended filter), by
		// additivity of the impact measure over the sibling group.
		root := h.Without(extIdx)
		if m.cfg.EnableBoundPruning && m.cfg.EnablePruning2 && m.cfg.MinImpact > 0 &&
			m.eng.ImpactShareUpperBoundAt(root) < m.cfg.MinImpact {
			// The HDS impact (the root subspace's true impact) cannot reach
			// MinImpact, so Pruning 2 would discard this candidate at commit:
			// cut it here, before the root-impact query is ever issued.
			exts = append(exts, extension{skipped: true})
			continue
		}
		rootImpact, probe := m.eng.ImpactAt(root)
		exts = append(exts, extension{kind: model.ExtendSubspace, ext: extIdx, root: root, n: card,
			impact: rootImpact, probe: probe})
	}

	// Measure extending.
	if n := len(m.eng.Measures()); n >= 2 {
		exts = append(exts, extension{kind: model.ExtendMeasure, root: h, n: n, impact: float64(n) * u.impact})
	}

	// Breakdown extending: only from a temporal anchor breakdown, across all
	// temporal dimensions the anchor does not filter (core.BreakdownHDS).
	if m.temporal[u.bdim] {
		n := 0
		for d, temporal := range m.temporal {
			if temporal && !h.Has(d) {
				n++
			}
		}
		exts = append(exts, extension{kind: model.ExtendBreakdown, root: h, n: n, impact: float64(n) * u.impact})
	}
	return exts
}

// emitCandidates appends one MetaInsight compute-unit candidate per
// extension of a discovered basic data pattern dp = (ds, t, ·), where ds is
// the anchor scope of data-pattern unit u with the engine's measure number
// measure, recording the lookups a sequential execution performs while
// emitting them.
// Deduplication across anchors and Pruning 2 are applied by the dispatcher at
// commit time, so candidate filtering is deterministic in commit order.
func (m *Miner) emitCandidates(cands []miCandidate, rec *recorder, exts []extension, u *workUnit, measure int, t pattern.Type, delta *statDelta) []miCandidate {
	for i := range exts {
		x := &exts[i]
		if x.skipped {
			delta.boundSkips++
			continue
		}
		if x.probe.Handle != nil {
			rec.recordImpact(x.probe)
		}
		if x.n < 2 {
			continue
		}
		// The key holds exactly the parts core.HDSKey renders for the kind.
		key := candKey{kind: uint8(x.kind), ptype: int32(t)}
		switch x.kind {
		case model.ExtendSubspace:
			key.scope = m.eng.UnitIDAt(x.root, u.bdim).Scope(m.measureIDs[measure])
			key.ext = uint16(x.ext)
		case model.ExtendMeasure:
			key.scope = cache.ScopeID(m.eng.UnitIDAt(x.root, u.bdim))
		case model.ExtendBreakdown:
			key.scope = m.eng.UnitIDAt(x.root, 0).Scope(m.measureIDs[measure])
		}
		cands = append(cands, miCandidate{key: key, anchor: m.eng.UnitIDAt(u.handle, u.bdim), measure: int32(measure),
			n: int32(x.n), impact: x.impact})
	}
	return cands
}

func minClamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}

// hdsRefs appends to refs the scopes of candidate c's HDS, in order: what
// core.SubspaceHDS, MeasureHDS and BreakdownHDS build from the anchor scope,
// as handles and indices.
func (m *Miner) hdsRefs(refs []scopeRef, c *miCandidate) []scopeRef {
	h, bdim, measure := m.eng.HandleOf(c.anchor), c.anchor.Breakdown(), int(c.measure)
	switch model.ExtensionKind(c.key.kind) {
	case model.ExtendSubspace:
		ext := int(c.key.ext)
		root := h.Without(ext)
		for code := 0; code < int(c.n); code++ {
			refs = append(refs, scopeRef{h: root.With(ext, code), bdim: bdim, measure: measure})
		}
	case model.ExtendMeasure:
		for i := range m.measureIDs {
			refs = append(refs, scopeRef{h: h, bdim: bdim, measure: i})
		}
	case model.ExtendBreakdown:
		for d, temporal := range m.temporal {
			if temporal && !h.Has(d) {
				refs = append(refs, scopeRef{h: h, bdim: d, measure: measure})
			}
		}
	}
	return refs
}

// tally is the partition of an HDP's patterns that a scope loop counts: the
// Sim-equivalence classes of the HDP's type, by highlight, in first-seen
// order (as core.BuildMetaInsight partitions them), and the scopes that
// induced another type or none.
type tally struct {
	highlights []pattern.Highlight
	counts     []int
	others     int
	nones      int
	n          int // patterns counted
	best       int // the largest class
}

func (t *tally) reset() {
	clear(t.highlights)
	t.highlights, t.counts = t.highlights[:0], t.counts[:0]
	t.others, t.nones, t.n, t.best = 0, 0, 0, 0
}

// add counts one induced pattern of an HDP of type want.
func (t *tally) add(got pattern.Type, h pattern.Highlight, want pattern.Type) {
	t.n++
	switch got {
	case want:
		c := 0
		for c < len(t.highlights) && !h.Equal(t.highlights[c]) {
			c++
		}
		if c == len(t.highlights) {
			t.highlights = append(t.highlights, h)
			t.counts = append(t.counts, 0)
		}
		t.counts[c]++
		t.best = max(t.best, t.counts[c])
	case pattern.OtherPattern:
		t.others++
	default:
		t.nones++
	}
}

// scopeLoop evaluates the scopes refs of candidate c's HDS in order, the one
// definition of which patterns make up its HDP, and counts them in
// sc.tally. Each scope is resolved to its unit exactly once. A worker passes
// its recorder: the loop records every lookup for the replay, prefetches a
// subspace-extended HDS's sibling units with one augmented query when the
// query cache is enabled (a unit the prefetch already peeked is handed to
// the materialization instead of probed again), and applies Pruning 1,
// aborting as soon as no commonness can reach τ; it returns false when it
// stopped early. A build passes none: it runs the whole loop over what the
// worker left in the memos, records nothing, and collects the patterns in
// sc.patterns.
func (m *Miner) scopeLoop(c *miCandidate, refs []scopeRef, rec *recorder, sc *scratch, delta *statDelta) bool {
	t := &sc.tally
	t.reset()
	var peeked []cache.Unit
	if rec != nil && model.ExtensionKind(c.key.kind) == model.ExtendSubspace && m.cfg.EnableQueryCache {
		peeked = m.prefetchSiblings(refs, int(c.key.ext), rec, sc)
	}
	ptype := pattern.Type(c.key.ptype)
	measures := m.eng.Measures()
	n := len(refs)
	for j, ref := range refs {
		if rec != nil && m.stopping.Load() {
			return false
		}
		if !ref.h.Valid() || ref.h.Has(ref.bdim) {
			continue // not a scope of this table (dataset.Table.Validate)
		}
		var hint *cache.Unit
		if j < len(peeked) {
			hint = &peeked[j]
		}
		id := m.eng.UnitIDAt(ref.h, ref.bdim)
		unit := m.eng.MaterializeUnitAt(ref.h, ref.bdim, hint)
		if rec != nil {
			rec.recordUnit(id, m.eng.ScanCostAt(ref.h))
		}
		meas := measures[ref.measure]
		if sc.columns(m, unit)[ref.measure] < 0 {
			delta.extractErrors++
			continue
		}
		if unit.Len() < 3 {
			// Empty or degenerate sibling: not part of the HDP.
			delta.shortSeriesSkips++
			continue
		}
		ds := model.DataScope{Subspace: ref.h.Subspace(), Breakdown: m.dimNames[ref.bdim], Measure: meas}
		se := m.evaluateScope(rec, id.Scope(m.measureIDs[ref.measure]), unit, ds, m.temporal[ref.bdim])
		got, h := se.Induced(ptype)
		t.add(got, h, ptype)
		if rec == nil {
			sc.patterns = append(sc.patterns, core.DataPattern{Scope: ds, Type: got, Highlight: h})
		} else if m.cfg.EnablePruning1 {
			remaining := n - j - 1
			// Even if every remaining scope joined the largest class, its
			// ratio could not exceed τ: terminate (Pruning 1). The bound
			// uses the evaluated pattern count rather than the nominal HDS
			// size, so scopes that turned out empty cannot cause a valid
			// MetaInsight to be pruned.
			if float64(t.best+remaining) <= m.cfg.Tau*float64(t.n+remaining) {
				delta.pruned1++
				return false
			}
		}
	}
	return true
}

// processMetaInsight evaluates one HDP and returns its row when it yields a
// MetaInsight: the scope loop's partition, scored by core.ScoreCounts. It
// builds no MetaInsight; Miner.build does, for the rows a caller reads.
func (m *Miner) processMetaInsight(u *workUnit, rec *recorder, sc *scratch, delta *statDelta) (row, bool) {
	c := &u.cand
	refs := m.hdsRefs(sc.refs[:0], c)
	sc.refs = refs
	rec.grow(2*len(refs) + 1)
	var evalStart time.Time
	if sc.clock != nil {
		evalStart = time.Now()
	}
	complete := m.scopeLoop(c, refs, rec, sc, delta)
	sc.evaluated(evalStart)
	if !complete {
		return row{}, false
	}
	t := &sc.tally
	score, ok := core.ScoreCounts(t.counts, t.others, t.nones, c.impact, m.cfg.Tau)
	if !ok {
		return row{}, false
	}
	return row{miCandidate: *c, score: score.Score}, true
}

// build returns the MetaInsight row r stands for: the scope loop run again
// over the unit and pattern memos, which hold everything the worker that
// mined the row read, with no recorder, so building touches no ledger,
// statistic, trace or observer. It is the one place a run's MetaInsights
// are made.
func (m *Miner) build(r *row) *core.MetaInsight {
	c := &r.miCandidate
	refs := m.hdsRefs(nil, c)
	sc := &scratch{patterns: make([]core.DataPattern, 0, len(refs))}
	var discard statDelta
	m.scopeLoop(c, refs, nil, sc, &discard)

	hdp := core.NewHDP(m.candLabel(r.key), m.hdsOf(c, refs), pattern.Type(c.key.ptype), sc.patterns)
	mi, ok := core.BuildMetaInsight(hdp, r.impact, m.cfg.Tau)
	if !ok || mi.Score != r.score {
		panic(fmt.Sprintf("miner: the MetaInsight rebuilt for %s does not match its row", hdp.Key()))
	}
	return mi
}

// hdsOf returns the HDS of candidate c, whose scopes are refs (hdsRefs).
func (m *Miner) hdsOf(c *miCandidate, refs []scopeRef) core.HDS {
	measures := m.eng.Measures()
	anchor := model.DataScope{Subspace: m.eng.HandleOf(c.anchor).Subspace(), Breakdown: m.dimNames[c.anchor.Breakdown()], Measure: measures[c.measure]}
	hds := core.HDS{Kind: model.ExtensionKind(c.key.kind), Anchor: anchor, Scopes: make([]model.DataScope, len(refs))}
	if hds.Kind == model.ExtendSubspace {
		hds.ExtDim = m.dimNames[c.key.ext]
	}
	for j, ref := range refs {
		hds.Scopes[j] = model.DataScope{Subspace: ref.h.Subspace(), Breakdown: m.dimNames[ref.bdim], Measure: measures[ref.measure]}
	}
	return hds
}

// prefetchSiblings records (and, if the physical cache lacks any sibling,
// executes) the augmented-query prefetch for a subspace-extending HDS whose
// scopes extend dimension ext. One augmented scan populates the entire
// sibling group SG(anchor, ExtDim). Whether the canonical run pays for the
// scan is decided at commit time by replaying the recorded decision against
// the simulated cache. It returns the scope units it peeked, the units of a
// prefix of scopes (those before the first it found missing), in the
// worker's buffer. The peek shortcut is pure because the physical cache
// never evicts: a unit once peeked stays.
func (m *Miner) prefetchSiblings(scopes []scopeRef, ext int, rec *recorder, sc *scratch) []cache.Unit {
	peeked := sc.peeked[:0]
	for _, ref := range scopes {
		unit, ok := m.eng.PeekUnitAt(ref.h, ref.bdim)
		if !ok {
			break
		}
		peeked = append(peeked, unit)
	}
	sc.peeked = peeked
	anchor := scopes[0] // every scope shares the breakdown and the base
	base := anchor.h.Without(ext)
	if len(peeked) < len(scopes) {
		m.eng.MaterializeAugmentedAt(base, anchor.bdim, ext)
	}
	rec.recordSiblings(base, anchor.bdim, ext, m.eng.ScanCostAt(base))
	return peeked
}
