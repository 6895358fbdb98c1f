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
	"context"
	"fmt"
	"sort"
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
	// Score holds the MetaInsight scoring hyper-parameters (τ, k, r, γ).
	// Unset (zero) fields are filled individually from the paper defaults
	// (core.ScoreParams.WithDefaults), so overriding only Tau keeps k, r
	// and γ meaningful.
	Score core.ScoreParams
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
	// TopK, when positive, enables S*-bounded early termination: once K
	// MetaInsights are committed, a MetaInsight compute unit whose score
	// upper bound (core.ScoreUpperBound, from Lemma 4.1's S* and the
	// cheapest-exception entropy floor) cannot strictly beat the K-th best
	// committed score is cut before evaluation — none of its sibling scans
	// ever reach the engine and none of its cost is charged. The K-th best
	// score is monotone nondecreasing over commits and every cut is decided
	// on the dispatcher's canonical commit path, so results and statistics
	// remain bit-identical for any worker count, and every MetaInsight whose
	// score strictly exceeds the run's final K-th best score is still mined.
	// Zero (the default) disables termination; callers that rank more than K
	// insights, or rank with diversity weights rather than raw score, should
	// size TopK accordingly or leave it off.
	TopK int
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
		Score:                   core.DefaultScoreParams(),
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
	// SStarCut counts MetaInsight compute units cut by S*-bounded early
	// termination (Config.TopK): their score upper bound could not beat the
	// K-th best committed score, so they were dropped without evaluation —
	// no queries, no budget, no MetaInsightUnits increment.
	SStarCut int64
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

// Result is the outcome of a mining run: all qualified MetaInsight
// candidates (deduplicated by identity key, sorted by score descending) and
// run statistics. Candidates feed the ranking stage (Section 4.3).
type Result struct {
	MetaInsights []*core.MetaInsight
	Stats        Stats
	// Err is never set by the miner. It exists for the root package's
	// MiningResult, which reports in it an analyzer whose engine failed to
	// rebuild for a repeated mine.
	Err error
}

// Keys returns the identity keys of the mined MetaInsights, the set the
// precision metric of Definition 5.1 intersects.
func (r *Result) Keys() map[string]bool {
	keys := make(map[string]bool, len(r.MetaInsights))
	for _, mi := range r.MetaInsights {
		keys[mi.Key()] = true
	}
	return keys
}

// Miner drives one mining run over an engine.
type Miner struct {
	eng *engine.Engine
	cfg Config

	// Per-table lookups resolved once: the canonical key and the interner's
	// ordinal of each mined measure (aligned with eng.Measures()) and, per
	// table dimension index, whether the dimension is temporal.
	measureKeys []string
	measureIDs  []uint32
	temporal    []bool

	// maxFinished bounds the speculation window's finished entries
	// (defaultMaxFinished; tests shrink it to run the full-window path).
	maxFinished int

	// stopping is set once the dispatcher stops committing (budget exhausted
	// or work drained); workers abort promptly, and their output is
	// discarded, never committed.
	stopping atomic.Bool

	// Dispatcher-owned state: written only by Run's dispatcher goroutine,
	// in commit order. No lock needed.
	queue   canonHeap[*workUnit] // pending units, ordered by canonicalBefore
	results map[string]*core.MetaInsight
	seenMI  map[string]bool
	stats   Stats
	seq     int64
	acct    *accounting
	// topScores holds the scores of the best min(TopK, committed) results,
	// sorted descending — the termination threshold of Config.TopK.
	topScores []float64
}

// New creates a Miner. The zero-value parts of cfg are filled with defaults.
func New(eng *engine.Engine, cfg Config) *Miner {
	def := DefaultConfig()
	cfg.Score = cfg.Score.WithDefaults()
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
		results:     make(map[string]*core.MetaInsight),
		seenMI:      make(map[string]bool),
	}
	m.queue.before = m.canonicalBefore
	for _, ms := range eng.Measures() {
		m.measureKeys = append(m.measureKeys, ms.Key())
	}
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
	produced []*workUnit // children; kindMetaInsight entries are candidates
	events   []usageEvent
	delta    statDelta
	mi       *core.MetaInsight // non-nil when a kindMetaInsight unit qualified
	// panicked marks a unit whose process call panicked; panicVal carries the
	// rendered panic value. The unit commits as failed-and-accounted: no
	// events, no children, no MetaInsight.
	panicked bool
	panicVal string
	// cut marks a unit S*-terminated at dispatch time without execution; the
	// commit path re-derives the same verdict for units that did execute (the
	// K-th best score is monotone, so a dispatch-time cut never un-cuts).
	cut bool
	// entry is the window entry the worker was handed, so the dispatcher
	// files the completion without searching for it.
	entry *specEntry
}

// Run executes the mining procedure and returns all discovered MetaInsights.
func (m *Miner) Run() *Result { return m.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is checked at
// every unit-commit boundary (the same whole-unit granularity as budget
// checks), so a cancelled run stops promptly, never tears a commit in half,
// and returns the best-so-far results with Stats.Cancelled set.
func (m *Miner) RunContext(ctx context.Context) *Result {
	o := m.cfg.Observer
	initStart := time.Now()
	m.acct = newAccounting(m.eng, m.cfg.EnableQueryCache, m.cfg.EnablePatternCache, m.cfg.Observer)

	m.pushRoot()

	workCh := make(chan *specEntry)
	doneCh := make(chan *completion)
	var wg sync.WaitGroup
	for i := 0; i < m.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range workCh {
				var t0 time.Time
				if o != nil {
					t0 = time.Now()
				}
				c := m.safeProcess(e.unit)
				c.entry = e
				if o != nil {
					// Worker-side phase accounting is atomic-only and
					// therefore inert; totals are CPU time across workers.
					o.Phase(e.unit.kind.phase(), time.Since(t0))
				}
				doneCh <- c
			}
		}()
	}
	o.Phase(obs.PhaseInit, time.Since(initStart))

	// spec is the speculation window (see specEntry).
	spec := canonHeap[*specEntry]{before: func(a, b *specEntry) bool { return m.canonicalBefore(a.unit, b.unit) }}
	inflight := 0
	windowPeak := 0
	var spare *specEntry // an entry a lost send left unused

	// canonicalNext returns the unit a single-worker run would process next
	// given the committed state — the first, in canonical order, of the
	// queue's top and the window's top — and its window entry if it has
	// already been dispatched.
	canonicalNext := func() (*workUnit, *specEntry) {
		next := m.queue.top()
		if e := spec.top(); e != nil && (next == nil || m.canonicalBefore(e.unit, next)) {
			return e.unit, e
		}
		return next, nil
	}
	receive := func(c *completion) {
		c.entry.comp = c
		inflight--
	}

	for {
		if ctx.Err() != nil {
			m.stats.Cancelled = true
			o.Event(obs.EvCancel, "", "context cancelled; returning best-so-far results", 0)
			break
		}
		if m.budgetSpent() {
			o.Event(obs.EvBudgetStop, "", fmt.Sprintf("cost=%.3f", m.acct.cost), 0)
			break
		}
		next, entry := canonicalNext()
		if next == nil && inflight == 0 {
			break
		}
		windowPeak = max(windowPeak, spec.Len())
		if entry != nil && entry.comp != nil {
			m.commit(entry.comp)
			spec.pop() // entry is the window's top
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
		case m.queue.Len() == 0:
			why = waitQueueEmpty
		default:
			u := m.queue.top()
			if m.sstarCut(u) {
				// Dispatch-time pre-filter: the K-th best score only grows, so
				// the cut still holds at the unit's canonical commit slot. Skip
				// the worker round-trip entirely and let commit record the cut
				// in its slot.
				m.queue.pop()
				spec.push(&specEntry{unit: u, comp: &completion{unit: u, cut: true}})
				continue
			}
			if spare == nil {
				spare = &specEntry{}
			}
			spare.unit = u
			select {
			case workCh <- spare:
				m.queue.pop()
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
		t0 := time.Now()
		c := <-doneCh
		recordWait(o, why, inflight, time.Since(t0))
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
	for range doneCh {
	}

	return m.finish()
}

// sstarCut reports whether a MetaInsight unit provably cannot enter the
// current top K: its score upper bound does not exceed the K-th best
// committed score (ties lose — an equal-scoring insight cannot displace one
// already committed). The threshold is monotone nondecreasing over commits,
// so a verdict reached at dispatch time still holds at the unit's canonical
// commit slot, where the decision is authoritative.
func (m *Miner) sstarCut(u *workUnit) bool {
	if m.cfg.TopK <= 0 || u.kind != kindMetaInsight || len(m.topScores) < m.cfg.TopK {
		return false
	}
	ub := core.ScoreUpperBound(u.impactHDS, len(u.hds.Scopes), m.cfg.Score)
	return ub <= m.topScores[m.cfg.TopK-1]
}

// recordTopScore folds a newly stored result's score into the sorted top-K
// threshold list (no-op when S* termination is off).
func (m *Miner) recordTopScore(s float64) {
	if m.cfg.TopK <= 0 {
		return
	}
	i := sort.Search(len(m.topScores), func(i int) bool { return m.topScores[i] < s })
	if i >= m.cfg.TopK {
		return
	}
	m.topScores = append(m.topScores, 0)
	copy(m.topScores[i+1:], m.topScores[i:])
	m.topScores[i] = s
	if len(m.topScores) > m.cfg.TopK {
		m.topScores = m.topScores[:m.cfg.TopK]
	}
}

// canonicalBefore reports whether a precedes b in the canonical processing
// order, the only definition of that order: the pending queue and the
// speculation window are both heaps ordered by it. Under priority order it is
// priority descending with seq as tie-breaker; under FIFO it is seq, the
// emission order. Under PatternsFirst any pattern-side unit precedes every
// MetaInsight unit — the paper's data pattern module feeding the MetaInsight
// module. Priorities are never NaN (engine.New rejects a non-finite impact
// total) and seq is unique among live units, so this is a strict total order.
func (m *Miner) canonicalBefore(a, b *workUnit) bool {
	if m.cfg.PatternsFirst && (a.kind == kindMetaInsight) != (b.kind == kindMetaInsight) {
		return b.kind == kindMetaInsight
	}
	if m.cfg.UsePriorityQueues && a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
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
	var t0 time.Time
	var costBefore float64
	if o != nil {
		t0 = time.Now()
		costBefore = m.acct.cost
	}
	if traced {
		o.Event(obs.EvPop, describeUnit(c.unit), c.unit.kind.String(), 0)
	}
	if c.cut || m.sstarCut(c.unit) {
		// S*-terminated at the canonical slot. The unit is dropped wholesale:
		// no usage replay, no budget charge, no kind counter — a single-worker
		// run would have cut it before execution, so even a speculative
		// evaluation (or panic) on some worker is discarded, keeping the
		// commit stream worker-count-invariant.
		c.cut, c.panicked = true, false
		c.produced, c.events, c.mi = nil, nil, nil
		m.stats.SStarCut++
		if o != nil {
			o.Count("miner.sstar_cut", 1)
			if traced {
				o.Event(obs.EvPrune, describeUnit(c.unit), "sstar", 0)
			}
			o.Observe("miner.commit.cost_units", commitCostBounds, 0)
			o.Phase(obs.PhaseCommit, time.Since(t0))
		}
		return
	}
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
				o.Event(obs.EvUnitPanic, describeUnit(c.unit), c.panicVal, 0)
			}
			o.Observe("miner.commit.cost_units", commitCostBounds, 0)
			o.Phase(obs.PhaseCommit, time.Since(t0))
		}
		return
	}
	for _, ev := range c.events {
		m.acct.apply(ev)
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
			o.Event(obs.EvPrune, describeUnit(c.unit), "pruning1", 0)
		}
	}

	for _, u := range c.produced {
		if u.kind == kindMetaInsight {
			// Identity dedup and Pruning 2 are commit-time decisions so the
			// first unit in canonical order wins, independent of which
			// worker raced where.
			if m.seenMI[u.miKey] {
				o.Count("miner.dedup", 1)
				if traced {
					o.Event(obs.EvDedup, u.miKey, "", 0)
				}
				continue
			}
			m.seenMI[u.miKey] = true
			if m.cfg.EnablePruning2 && minClamp(u.impactHDS) < m.cfg.MinImpact {
				m.stats.Pruned2++
				o.Count("miner.pruned2", 1)
				if traced {
					o.Event(obs.EvPrune, u.miKey, "pruning2", 0)
				}
				continue
			}
			if m.sstarCut(u) {
				// Emission-time S* cut: the candidate is dead on arrival
				// against the current top K, so it never enters the queue.
				m.stats.SStarCut++
				o.Count("miner.sstar_cut", 1)
				if traced {
					o.Event(obs.EvPrune, u.miKey, "sstar", 0)
				}
				continue
			}
			m.stats.EmittedMIUnits++
		}
		m.seq++
		u.seq = m.seq
		m.queue.push(u)
	}

	if c.mi != nil {
		key := c.mi.Key()
		if _, exists := m.results[key]; !exists {
			m.results[key] = c.mi
			m.recordTopScore(c.mi.Score)
			o.Count("miner.stored", 1)
			if traced {
				o.Event(obs.EvStore, key, fmt.Sprintf("score=%.6f", c.mi.Score), 0)
			}
			if m.cfg.OnMetaInsight != nil {
				m.cfg.OnMetaInsight(c.mi)
			}
		}
	}

	if o != nil {
		o.Observe("miner.commit.cost_units", commitCostBounds, m.acct.cost-costBefore)
		o.Phase(obs.PhaseCommit, time.Since(t0))
	}
}

// describeUnit renders a compact, deterministic trace label for a unit.
func describeUnit(u *workUnit) string {
	switch u.kind {
	case kindExpand:
		return u.handle.Key()
	case kindDataPattern:
		return u.handle.Key() + "|" + u.breakdown
	case kindMetaInsight:
		return u.miKey
	default:
		return "?"
	}
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
	out := make([]*core.MetaInsight, 0, len(m.results))
	for _, mi := range m.results {
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Key() < out[j].Key()
	})
	m.stats.ExecutedQueries = m.acct.executed
	m.stats.AugmentedQueries = m.acct.augmented
	m.stats.CacheServed = m.acct.served
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
		// Past a budget or a top-k cut, speculative units evaluate scopes
		// that no commit reads, as many as the workers got to.
		o.MarkTiming(obsEvaluations)
	}
	return &Result{MetaInsights: out, Stats: m.stats}
}

// safeProcess runs process under a recover barrier: a panicking pattern
// evaluator (e.g. an unregistered custom type) takes down one unit, not the
// process. The recovered completion is fresh — whatever partial events or
// children process accumulated are discarded, so the commit is a pure
// function of the unit — and carries only the kind counter plus the panic
// value. Panics are deterministic (pure functions of unit + data; the
// memos re-raise a computation's panic in every caller waiting on it), so
// the same units panic at every worker count.
func (m *Miner) safeProcess(u *workUnit) (c *completion) {
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
	return m.process(u)
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

// process executes one compute unit speculatively: pure data work plus a
// recording of the usage it performed. It runs on a worker goroutine and
// touches no dispatcher-owned state.
func (m *Miner) process(u *workUnit) *completion {
	c := &completion{unit: u}
	rec := &recorder{}
	switch u.kind {
	case kindExpand:
		c.delta.expandUnits++
		c.produced = m.processExpand(u, rec, &c.delta)
	case kindDataPattern:
		c.delta.dataPatternUnits++
		c.produced = m.processDataPattern(u, rec, &c.delta)
	case kindMetaInsight:
		c.delta.metaInsightUnits++
		c.mi = m.processMetaInsight(u, rec, &c.delta)
	default:
		panic("miner: unknown unit kind")
	}
	c.events = rec.events
	return c
}

// processExpand emits the data-pattern compute units for a subspace and, if
// the subspace is not at maximum depth, its child subspaces with their
// impacts (computed from one group-by unit per expandable dimension — the
// same units the data-pattern module will need, so the scans are shared
// through the query cache).
func (m *Miner) processExpand(u *workUnit, rec *recorder, delta *statDelta) []*workUnit {
	dims := m.eng.Table().Dimensions()
	var produced []*workUnit

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
		rec.recordUnit(m.eng.UnitIDAt(u.handle, idx), unit, cost)
		src, total := m.eng.GroupImpactsAt(u.handle, idx, unit), m.eng.TotalImpact()
		for gi, v := range unit.GroupKeys {
			imp := src[gi] / total
			if imp < m.cfg.MinSubspaceImpact {
				continue
			}
			child := u.handle.With(idx, dim.Code(v))
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
// (subspace, breakdown) scope family and emits MetaInsight compute-unit
// candidates for each discovered basic data pattern (pattern-guided mining,
// Figure 4). Candidate dedup and Pruning 2 happen at commit time.
func (m *Miner) processDataPattern(u *workUnit, rec *recorder, delta *statDelta) []*workUnit {
	measures := m.eng.Measures()
	rec.grow(1 + len(measures))
	// One unit fetch serves every measure of the scope family (the cache
	// unit spans all measures, Figure 5).
	cost := m.eng.ScanCostAt(u.handle)
	id := m.eng.UnitIDAt(u.handle, u.bdim)
	unit := m.eng.MaterializeUnitAt(u.handle, u.bdim, nil)
	rec.recordUnit(id, unit, cost)
	var produced []*workUnit
	for i, meas := range measures {
		if engine.CheckExtract(unit, meas) != nil {
			// Structural extraction failure (e.g. unknown measure column) —
			// counted separately from ordinary data sparsity.
			delta.extractErrors++
			continue
		}
		if len(unit.GroupKeys) < 3 {
			delta.shortSeriesSkips++
			continue
		}
		ds := model.DataScope{Subspace: u.subspace, Breakdown: u.breakdown, Measure: meas}
		se := m.evaluateScope(rec, id.Scope(m.measureIDs[i]), unit, ds, m.temporal[u.bdim])
		// The extension candidates depend on the anchor scope only, so they
		// are built once and emitted under every type that holds.
		var exts []extension
		for _, h := range se.Holds {
			delta.patternsFound++
			if exts == nil {
				exts = m.extensions(u, ds, m.measureKeys[i])
			}
			produced = emitMetaInsightUnits(produced, rec, exts, h.Type, delta)
		}
	}
	return produced
}

// obsEvaluations counts the scope evaluations a run actually performed, the
// pattern-side twin of engine.physical.scans: a scope some earlier request
// over the same pattern memo evaluated counts nothing.
const obsEvaluations = "pattern.physical.evaluations"

// evaluateScope runs (or recalls) the all-types evaluation of one data scope
// through the pattern cache, recording the evaluation for canonical
// accounting. The scope is keyed by its id, and the series is extracted from
// the unit (which CheckExtract has cleared) only when the evaluation
// actually runs, which the observer counts as obsEvaluations. Concurrent
// evaluations of the same scope share one.
func (m *Miner) evaluateScope(rec *recorder, id cache.ScopeID, unit *cache.Unit, ds model.DataScope, temporal bool) *pattern.ScopeEvaluation {
	se := m.eng.PatternCache().Do(id, func() *pattern.ScopeEvaluation {
		m.cfg.Observer.Count(obsEvaluations, 1)
		series, _ := engine.Extract(unit, ds)
		return pattern.EvaluateAllScoped(ds, series.Keys, series.Values, temporal, m.cfg.Pattern)
	})
	rec.recordEval(id)
	return se
}

// extension is one HDS extended from an anchor data scope, with everything
// emitting it under a pattern type needs. Extensions are built once per
// anchor and shared, read-only, by the units of every valid type.
type extension struct {
	hds    core.HDS
	key    string // hds.Key()
	scopes []scopeRef
	impact float64 // Impact_HDS

	// probe is the root-impact lookup of a subspace extension (the zero
	// probe otherwise); it is recorded once per emitting type, as a
	// sequential execution would perform it. skipped marks an extension the
	// impact-sum bound cut before that lookup, which emits no unit.
	probe   engine.ImpactProbe
	skipped bool
}

// extensions applies the three extension strategies to the anchor scope ds
// of data-pattern unit u, in emission order: one subspace extension per
// filter, then measure, then breakdown.
func (m *Miner) extensions(u *workUnit, ds model.DataScope, measureKey string) []extension {
	tab := m.eng.Table()
	h := u.handle
	exts := make([]extension, 0, h.Len()+2)

	// Subspace extending: one HDS per non-empty filter of ds.Subspace.
	for _, f := range ds.Subspace {
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
		hds := core.HDS{Kind: model.ExtendSubspace, Anchor: ds, ExtDim: f.Dim,
			Scopes: make([]model.DataScope, card)}
		scopes := make([]scopeRef, card)
		for code := range scopes {
			sib := root.With(extIdx, code)
			hds.Scopes[code] = model.DataScope{Subspace: sib.Subspace(), Breakdown: ds.Breakdown, Measure: ds.Measure}
			scopes[code] = scopeRef{h: sib, bdim: u.bdim}
		}
		exts = append(exts, extension{
			hds: hds, key: core.HDSKey(hds.Kind, root.Key(), f.Dim, ds.Breakdown, measureKey),
			scopes: scopes, impact: rootImpact, probe: probe,
		})
	}

	// Measure extending.
	if ms := m.eng.Measures(); len(ms) >= 2 {
		hds := core.MeasureHDS(ds, ms)
		scopes := make([]scopeRef, len(ms))
		for i := range scopes {
			scopes[i] = scopeRef{h: h, bdim: u.bdim}
		}
		exts = append(exts, extension{
			hds: hds, key: core.HDSKey(hds.Kind, h.Key(), "", ds.Breakdown, measureKey),
			scopes: scopes, impact: float64(len(ms)) * u.impact,
		})
	}

	// Breakdown extending: only from a temporal anchor breakdown, across all
	// temporal dimensions.
	if m.temporal[u.bdim] {
		hds := core.BreakdownHDS(ds, tab.TemporalDimensions())
		scopes := make([]scopeRef, len(hds.Scopes))
		for i, sc := range hds.Scopes {
			scopes[i] = scopeRef{h: h, bdim: tab.DimensionIndex(sc.Breakdown)}
		}
		exts = append(exts, extension{
			hds: hds, key: core.HDSKey(hds.Kind, h.Key(), "", ds.Breakdown, measureKey),
			scopes: scopes, impact: float64(len(hds.Scopes)) * u.impact,
		})
	}
	return exts
}

// emitMetaInsightUnits appends one MetaInsight compute-unit candidate per
// extension of a discovered basic data pattern dp = (ds, t, ·), recording the
// lookups a sequential execution performs while emitting them.
// Deduplication across anchors and Pruning 2 are applied by the dispatcher at
// commit time, so candidate filtering is deterministic in commit order.
func emitMetaInsightUnits(produced []*workUnit, rec *recorder, exts []extension, t pattern.Type, delta *statDelta) []*workUnit {
	for i := range exts {
		x := &exts[i]
		if x.skipped {
			delta.boundSkips++
			continue
		}
		if x.probe.Handle != nil {
			rec.recordImpact(x.probe)
		}
		if len(x.hds.Scopes) < 2 {
			continue
		}
		produced = append(produced, &workUnit{
			kind:      kindMetaInsight,
			priority:  x.impact,
			hds:       x.hds,
			scopes:    x.scopes,
			ptype:     t,
			impactHDS: x.impact,
			miKey:     x.key + "|" + t.String(),
		})
	}
	return produced
}

func minClamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}

// processMetaInsight evaluates one HDP and returns the resulting
// MetaInsight, if any. Subspace-extended HDSs are prefetched with one
// augmented query when the query cache is enabled. Pruning 1 aborts the
// evaluation as soon as no commonness can reach τ. Each scope is resolved to
// its unit exactly once: a unit the prefetch already peeked is handed to the
// materialization instead of probed again.
func (m *Miner) processMetaInsight(u *workUnit, rec *recorder, delta *statDelta) *core.MetaInsight {
	n := len(u.hds.Scopes)
	rec.grow(2*n + 1)

	var peeked []*cache.Unit
	if u.hds.Kind == model.ExtendSubspace && m.cfg.EnableQueryCache {
		peeked = m.prefetchSiblings(u, rec)
	}

	patterns := make([]core.DataPattern, 0, n)
	// classes counts the patterns of the unit's type per Sim-equivalence
	// class (by highlight key, as BuildMetaInsight partitions them); best is
	// the largest count.
	type class struct {
		highlight pattern.Highlight
		count     int
	}
	var classes []class
	best := 0
	tau := m.cfg.Score.Tau
	// Only measure extension varies the measure; the others resolve the
	// anchor's once.
	varying := u.hds.Kind == model.ExtendMeasure
	measureID, measureOK := m.resolveMeasure(u.hds.Anchor.Measure)

	for j, scope := range u.hds.Scopes {
		if m.stopping.Load() {
			return nil
		}
		ref := u.scopes[j]
		if varying {
			measureID, measureOK = m.resolveMeasure(scope.Measure)
		}
		if !measureOK || !ref.h.Valid() || ref.h.Has(ref.bdim) {
			continue // not a scope of this table (dataset.Table.Validate)
		}
		var hint *cache.Unit
		if peeked != nil {
			hint = peeked[j]
		}
		cost := m.eng.ScanCostAt(ref.h)
		id := m.eng.UnitIDAt(ref.h, ref.bdim)
		unit := m.eng.MaterializeUnitAt(ref.h, ref.bdim, hint)
		rec.recordUnit(id, unit, cost)
		if engine.CheckExtract(unit, scope.Measure) != nil {
			delta.extractErrors++
			continue
		}
		if len(unit.GroupKeys) < 3 {
			// Empty or degenerate sibling: not part of the HDP.
			delta.shortSeriesSkips++
			continue
		}
		se := m.evaluateScope(rec, id.Scope(measureID), unit, scope, m.temporal[ref.bdim])
		t, h := se.Induced(u.ptype)
		patterns = append(patterns, core.DataPattern{Scope: scope, Type: t, Highlight: h})
		if t == u.ptype {
			c := 0
			for c < len(classes) && !h.Equal(classes[c].highlight) {
				c++
			}
			if c == len(classes) {
				classes = append(classes, class{highlight: h})
			}
			classes[c].count++
			best = max(best, classes[c].count)
		}
		if m.cfg.EnablePruning1 {
			remaining := n - j - 1
			// Even if every remaining scope joined the largest class, its
			// ratio could not exceed τ: terminate (Pruning 1). The bound
			// uses the evaluated pattern count rather than the nominal HDS
			// size, so scopes that turned out empty cannot cause a valid
			// MetaInsight to be pruned.
			if float64(best+remaining) <= tau*float64(len(patterns)+remaining) {
				delta.pruned1++
				return nil
			}
		}
	}
	if len(patterns) < 2 {
		return nil
	}
	mi, ok := core.BuildMetaInsight(core.NewHDP(u.miKey, u.hds, u.ptype, patterns), u.impactHDS, m.cfg.Score)
	if !ok {
		return nil
	}
	return mi
}

// resolveMeasure returns a measure's ordinal and whether the table can
// answer it (dataset.Table.ValidateMeasure).
func (m *Miner) resolveMeasure(meas model.Measure) (id uint32, ok bool) {
	for i, ms := range m.eng.Measures() {
		if ms == meas {
			return m.measureIDs[i], true // engine.New validated the measure set
		}
	}
	return m.eng.MeasureID(meas) // false for a measure the table cannot answer
}

// prefetchSiblings records (and, if the physical cache lacks any sibling,
// executes) the augmented-query prefetch for a subspace-extending HDS. One
// augmented scan populates the entire sibling group SG(anchor, ExtDim).
// Whether the canonical run pays for the scan is decided at commit time by
// replaying the recorded decision against the simulated cache. It returns
// the scope units it peeked (nil entries where it did not look or found
// nothing), aligned with the unit's scopes. The peek shortcut is pure
// because the physical cache never evicts: a unit once peeked stays.
func (m *Miner) prefetchSiblings(u *workUnit, rec *recorder) []*cache.Unit {
	peeked := make([]*cache.Unit, len(u.scopes))
	allCached := true
	for i, ref := range u.scopes {
		unit, ok := m.eng.PeekUnitAt(ref.h, ref.bdim)
		if !ok {
			allCached = false
			break
		}
		peeked[i] = unit
	}
	anchor := u.scopes[0] // every scope shares the breakdown and the base
	ext := m.eng.Table().DimensionIndex(u.hds.ExtDim)
	base := anchor.h.Without(ext)
	use := &siblingUse{scopes: u.scopes, cost: m.eng.ScanCostAt(base)}
	if allCached {
		// Physically nothing to fetch; reconstruct the scan's sibling list
		// (the non-empty scope units) from the peeked units so the
		// commit-time replay can populate its simulation if it decides the
		// prefetch fires there.
		use.siblings = make([]unitUse, 0, len(peeked))
		for i, unit := range peeked {
			if len(unit.GroupKeys) > 0 {
				use.siblings = append(use.siblings, unitUse{id: m.eng.UnitIDAt(u.scopes[i].h, anchor.bdim), unit: unit})
			}
		}
	} else {
		units := m.eng.MaterializeAugmentedAt(base, anchor.bdim, ext)
		use.siblings = make([]unitUse, 0, len(units))
		for code, unit := range units {
			if unit != nil {
				use.siblings = append(use.siblings, unitUse{id: m.eng.UnitIDAt(base.With(ext, code), anchor.bdim), unit: unit})
			}
		}
	}
	rec.recordSiblings(use)
	return peeked
}
