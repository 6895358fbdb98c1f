// Package engine is the query substrate MetaInsight mines over. The paper's
// implementation issued SQL-style queries against Microsoft Excel's query
// interface (Table 2); this package implements the equivalent engine over the
// in-memory columnar tables of internal/dataset: the paper's BasicQuery and
// AugmentedQuery as group-by aggregations across all measures, integrated
// with the query cache of internal/cache.
//
// Because an in-process scan is orders of magnitude cheaper than the paper's
// inter-process query round trips, the engine also defines a deterministic
// cost per executed query (a fixed per-query overhead plus a per-row scan
// cost, ScanCostAt). Mining budgets can be denominated in these cost units,
// making the cache/queue ablations of Figure 6 both visible and exactly
// reproducible. The engine computes and never charges: the ledger belongs to
// its callers — the miner replays its units' usage in commit order,
// QuickInsight charges inline — so a query is accounted exactly once.
package engine

import (
	"fmt"
	"math"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// The cost model: units are arbitrary but calibrated so that one unit ≈ one
// millisecond of the paper's Excel-backed substrate — a ~5ms query round
// trip, ~2000 rows scanned per ms and a ~0.2ms pattern evaluation.
const (
	// perQuery is the fixed overhead of every executed (non-cached) query,
	// standing in for the query-interface round trip.
	perQuery = 5
	// perRow is charged for every record an executed query scans.
	perRow = 0.0005
	// EvaluationCost is the cost of one data-pattern evaluation
	// (pattern-cache hits are free).
	EvaluationCost = 0.2
)

// Series is the result of a basic query: the raw data distribution of a data
// scope (aggregate values of the measure over the breakdown's sibling group).
// Groups with no records are omitted; Keys is in domain order.
type Series struct {
	Scope  model.DataScope
	Keys   []string
	Values []float64
}

// Len returns the number of groups in the series.
func (s *Series) Len() int { return len(s.Keys) }

// augKey identifies one augmented scan up to orientation: the paper's
// AugmentedQuery(ds, d) is one scan filtered by ds.Subspace \ d, grouped by
// (ds.Breakdown, d), and its twin with the two swapped is the same scan
// (Engine.scanPair). The base is named by its handle's ordinal, so the key
// is one word and holds no pointer.
type augKey struct {
	base   uint32 // ordinal of ds.Subspace.Without(d)'s handle
	lo, hi uint16 // the table indices of ds.Breakdown and d, ascending
}

// Engine executes queries for one table against one measure set. All query
// paths are safe for concurrent use: concurrent cache misses on the same key
// coalesce into a single scan through the query cache's and the pair memo's
// Do, so a unit is scanned at most once no matter how many workers race for
// it. Engines over one Interner with the same MIN/MAX set share both memos,
// and the pattern memo beside them, so across a Session's requests too a
// unit is scanned at most once and a scope evaluated at most once.
type Engine struct {
	tab      *dataset.Table
	measures []model.Measure
	impact   model.Measure
	qc       *cache.QueryCache
	pairs    *cache.Memo[augKey, *pairScan]                // augmented scans, see scanPair
	patterns *cache.PatternCache[*pattern.ScopeEvaluation] // evaluations of qc's units
	flight0  cache.FlightStats                             // the three memos' waits before New
	obs      *obs.Observer
	sub      Substrate
	in       *Interner // Config.Interner, or the engine's own
	dimNames []string  // tab.DimensionNames()
	// measureIDs are the interner's ordinals of the measures, aligned with
	// measures.
	measureIDs []uint32
	totalImp   float64
	bnd        impactBounds // lazily built impact-sum summaries (bounds.go)
	// impactSums memoizes a SUM impact measure's impactSum by handle
	// ordinal; nil for COUNT.
	impactSums *cache.Memo[uint32, float64]
}

// Config configures an Engine.
type Config struct {
	// Measures is the measure set M. If empty, Table.DefaultMeasures is used.
	Measures []model.Measure
	// ImpactMeasure must be additive (SUM or COUNT); defaults to COUNT(*),
	// the impact measure used throughout the paper's evaluation.
	ImpactMeasure model.Measure
	// ExtraMeasures lists measures that are not part of the mined measure set
	// M but will be queried against this engine (e.g. the secondary measures
	// of registered correlation evaluators, or a custom evaluator's declared
	// Requires set). They participate in the needed-aggregate derivation for
	// the default substrate: MIN/MAX accumulators are materialized only for
	// measure columns some measure in Measures ∪ ExtraMeasures ∪
	// {ImpactMeasure} actually aggregates with AggMin/AggMax.
	ExtraMeasures []model.Measure
	// ScanParallelism is how many goroutines one scan of the default substrate
	// may use (0 = GOMAXPROCS, 1 = sequential). Results are bit-identical for
	// any value: morsels have fixed boundaries and merge in morsel-index
	// order. Ignored when Substrate is set explicitly.
	ScanParallelism int
	// Observer, when non-nil, receives physical execution metrics
	// ("engine.physical.*": scans actually performed and rows actually
	// visited, counted via atomics on every scan path). Physical counts
	// reflect real work — unlike the canonical counters in miner.Stats they
	// may vary with worker count and budget timing — and never influence
	// query results or accounting.
	Observer *obs.Observer
	// Substrate is the physical scan layer; nil uses the in-process
	// ColumnarSubstrate over the table.
	Substrate Substrate
	// Interner is the intern table the engine's handles, and with them the
	// scan plans ScanCostAt charges, come from, and the owner of the query
	// cache, pair memo and pattern memo the engine uses (one of each per
	// MIN/MAX set); nil creates a fresh one. It must be over the engine's
	// table. Engines that share one (a Session's requests) plan each
	// subspace once between them, and with one MIN/MAX set scan each unit
	// and evaluate each scope once between them.
	Interner *Interner
}

// minMaxColumns derives the configuration's needed-aggregate set over tab:
// the measure columns that some measure in Measures ∪ ExtraMeasures ∪
// {ImpactMeasure} aggregates with MIN or MAX, the only columns whose MIN/MAX
// arrays a scan must materialize. The set is non-nil (possibly empty) so
// undeclared MIN/MAX queries surface as "unit lacks column" rather than
// silently paying for every column. New builds its default substrate from
// it.
func (cfg Config) minMaxColumns(tab *dataset.Table) map[string]bool {
	measures := cfg.Measures
	if measures == nil {
		measures = tab.DefaultMeasures()
	}
	need := make(map[string]bool)
	for _, ms := range [][]model.Measure{measures, cfg.ExtraMeasures, {cfg.ImpactMeasure}} {
		for _, m := range ms {
			if m.Agg == model.AggMin || m.Agg == model.AggMax {
				need[m.Column] = true
			}
		}
	}
	return need
}

// FlightStats sums the followers of the query cache, the pair memo and the
// pattern memo since the engine was built: callers that asked for a unit or
// an evaluation some other caller was already computing. Engines sharing the
// memos count each other's waits.
func (e *Engine) FlightStats() cache.FlightStats {
	st := e.memoFlight()
	st.Followers -= e.flight0.Followers
	st.Wait -= e.flight0.Wait
	return st
}

func (e *Engine) memoFlight() cache.FlightStats {
	st := e.qc.FlightStats()
	st.Add(e.pairs.FlightStats())
	st.Add(e.patterns.FlightStats())
	return st
}

// New creates an engine over tab.
func New(tab *dataset.Table, cfg Config) (*Engine, error) {
	if cfg.Measures == nil {
		cfg.Measures = tab.DefaultMeasures()
	}
	if cfg.ImpactMeasure == (model.Measure{}) {
		cfg.ImpactMeasure = model.Count("*")
	}
	if !cfg.ImpactMeasure.Agg.Additive() {
		return nil, fmt.Errorf("engine: impact measure %s is not additive", cfg.ImpactMeasure)
	}
	if n := len(tab.Dimensions()); n > cache.MaxBreakdowns {
		return nil, fmt.Errorf("engine: table has %d dimensions, more than the %d a unit id can name", n, cache.MaxBreakdowns)
	}
	if cfg.Interner == nil {
		cfg.Interner = NewInterner(tab)
	} else if cfg.Interner.tab != tab {
		return nil, fmt.Errorf("engine: Config.Interner is over table %q, not the engine's", cfg.Interner.tab.Name())
	}
	minMax := cfg.minMaxColumns(tab)
	sub := cfg.Substrate
	if sub == nil {
		sub = newColumnarSubstrate(tab, columnarConfig{
			par:    cfg.ScanParallelism,
			minMax: minMax,
			obs:    cfg.Observer,
			in:     cfg.Interner,
		})
	}
	units := cfg.Interner.units(minMax)
	e := &Engine{
		tab:      tab,
		measures: cfg.Measures,
		impact:   cfg.ImpactMeasure,
		qc:       units.qc,
		pairs:    units.pairs,
		patterns: units.patterns,
		obs:      cfg.Observer,
		sub:      sub,
		in:       cfg.Interner,
		dimNames: tab.DimensionNames(),
	}
	if e.impact.Agg != model.AggCount {
		e.impactSums = cache.NewMemo[uint32, float64](func(ord uint32) (int, uint64) { return 0, uint64(ord) })
	}
	e.flight0 = e.memoFlight()
	// Every measure is checked before any takes an interner ordinal, which it
	// keeps for the session's life.
	for _, ms := range [][]model.Measure{cfg.Measures, cfg.ExtraMeasures, {cfg.ImpactMeasure}} {
		for _, m := range ms {
			if err := tab.ValidateMeasure(m); err != nil {
				return nil, fmt.Errorf("engine: measure %s: %w", m, err)
			}
		}
	}
	for _, m := range cfg.Measures {
		id, ok := e.MeasureID(m)
		if !ok {
			return nil, fmt.Errorf("engine: the session has named more than %d measures", cache.MaxMeasures)
		}
		e.measureIDs = append(e.measureIDs, id)
	}
	// Every impact is a share of this total, so it must be positive and
	// finite: then every unit priority is finite and the miner's canonical
	// order a strict total order. NaN and +Inf (a non-finite cell, or a sum
	// that overflows) would turn every share into NaN or zero.
	e.totalImp = e.totalImpactValue()
	if !(e.totalImp > 0) || math.IsInf(e.totalImp, 1) {
		return nil, fmt.Errorf("engine: impact measure %s totals %v over the dataset", cfg.ImpactMeasure, e.totalImp)
	}
	return e, nil
}

// recordScan counts one physical scan on the observer (a no-op when no
// observer is attached). Counted on every path that actually visits rows, so
// "engine.physical.*" reports the machine's real work, complementing the
// canonical (worker-count-invariant) accounting in miner.Stats.
func (e *Engine) recordScan(rows int, augmented bool) {
	e.obs.Count("engine.physical.scans", 1)
	e.obs.Count("engine.physical.rows", int64(rows))
	if augmented {
		e.obs.Count("engine.physical.augmented_scans", 1)
	}
}

// Table returns the table the engine queries.
func (e *Engine) Table() *dataset.Table { return e.tab }

// Measures returns the measure set M.
func (e *Engine) Measures() []model.Measure { return e.measures }

// QueryCache returns the engine's query cache: the interner's, which the
// engine shares with every engine over the same interner and MIN/MAX set.
func (e *Engine) QueryCache() *cache.QueryCache { return e.qc }

// PatternCache returns the memo of the evaluations of the query cache's
// units, the interner's, shared like the query cache.
func (e *Engine) PatternCache() *cache.PatternCache[*pattern.ScopeEvaluation] { return e.patterns }

// totalImpactValue computes m_Impact({*}) directly (never charged: it is a
// one-time setup computation, equivalent to dataset metadata).
func (e *Engine) totalImpactValue() float64 {
	if e.impact.Agg == model.AggCount {
		return float64(e.tab.Rows())
	}
	col := e.tab.MeasureColumn(e.impact.Column)
	total := 0.0
	for i := 0; i < e.tab.Rows(); i++ {
		total += col.At(i)
	}
	return total
}

// TotalImpact returns m_Impact({*}), the denominator of Equation 2.
func (e *Engine) TotalImpact() float64 { return e.totalImp }

// Intern returns the engine's handle for s. The query paths below take
// handles (the *At forms); callers that touch a subspace repeatedly (the
// miner) keep the handle.
func (e *Engine) Intern(s model.Subspace) *Handle { return e.in.Intern(s) }

// UnitIDAt returns the query-cache id of (h, breakdown dimension index).
func (e *Engine) UnitIDAt(h *Handle, bdim int) cache.UnitID {
	return cache.MakeUnitID(h.ord, bdim)
}

// MeasureIDs returns the interner's ordinals of the measure set M, aligned
// with Measures.
func (e *Engine) MeasureIDs() []uint32 { return e.measureIDs }

// MeasureID returns the interner's ordinal of m, giving it one on first use.
// ok is false, and m takes no ordinal, when the table cannot answer m
// (dataset.Table.ValidateMeasure), so made-up names cannot fill the
// session's measure table; it is also false once the session has named
// cache.MaxMeasures measures.
func (e *Engine) MeasureID(m model.Measure) (id uint32, ok bool) {
	if e.tab.ValidateMeasure(m) != nil {
		return 0, false
	}
	return e.in.measureID(m.Key())
}

// HandleOf returns the handle of unit id's subspace.
func (e *Engine) HandleOf(id cache.UnitID) *Handle { return e.in.handle(id.Handle()) }

// UnitKeyOf renders a unit id as the unit's external identity.
func (e *Engine) UnitKeyOf(id cache.UnitID) cache.UnitKey {
	return cache.UnitKey{Subspace: e.in.handle(id.Handle()).key, Breakdown: e.dimNames[id.Breakdown()]}
}

// ScopeKeyOf renders a scope id as the scope's external identity.
func (e *Engine) ScopeKeyOf(id cache.ScopeID) cache.ScopeKey {
	return cache.ScopeKey{Unit: e.UnitKeyOf(id.Unit()), Measure: e.in.measureKey(id.Measure())}
}

// BasicQuery answers the paper's BasicQuery(ds): the aggregate of
// ds.Measure grouped by ds.Breakdown under ds.Subspace (Table 2, row 1),
// served from the query cache when possible; a miss scans the table once,
// producing (and caching) the full all-measures unit. Like every engine path
// it charges nothing: it is the value-form read for callers that hold a
// scope rather than a handle (report rendering, iCube, scope-aware
// evaluators).
func (e *Engine) BasicQuery(ds model.DataScope) (*Series, error) {
	if err := e.tab.Validate(ds); err != nil {
		return nil, err
	}
	return e.Extract(e.MaterializeUnitAt(e.in.Intern(ds.Subspace), e.tab.DimensionIndex(ds.Breakdown), nil), ds)
}

// PeekUnitAt returns the cached unit of (h, bdim), if any.
func (e *Engine) PeekUnitAt(h *Handle, bdim int) (cache.Unit, bool) {
	return e.qc.Get(e.UnitIDAt(h, bdim))
}

// UnitOf returns the cached unit with id, if any, waiting for it if its
// scan is in flight: a unit the query cache declined to take from an
// augmented scan because another caller was scanning it is there once that
// scan ends.
func (e *Engine) UnitOf(id cache.UnitID) (cache.Unit, bool) { return e.qc.Wait(id) }

// MaterializeUnitAt returns the unit of (h, breakdown dimension index bdim):
// a cached unit is returned, a missing one is scanned and stored. Concurrent
// misses on one unit share one scan. peeked, when non-nil, is the unit a
// PeekUnitAt of the same scope returned earlier in the same compute unit: it
// stands in for the cache lookup, so a scope resolved once is not looked up
// again.
func (e *Engine) MaterializeUnitAt(h *Handle, bdim int, peeked *cache.Unit) cache.Unit {
	if peeked != nil {
		return *peeked
	}
	return e.qc.Do(e.UnitIDAt(h, bdim), func() cache.Unit {
		u, scanned := e.sub.ScanUnitAt(h, bdim)
		e.recordScan(scanned, false)
		return u
	})
}

// MaterializeAugmentedAt answers the paper's AugmentedQuery(ds, d) (Table 2,
// row 2): one scan filtered by base = ds.Subspace \ d, grouped by
// (breakdown bdim, augmentation dimension ext), across all measures. It
// returns the units of the sibling subspaces in SG(ds.Subspace, d), indexed
// by the sibling's dictionary code on d and empty for a sibling without
// records, and stores each in the query cache, pre-fetching the
// subspace-extending HDS's scopes. The caller must not modify the slice. An
// augmentation dimension that is not the table's, or that is the breakdown,
// is a caller's bug and panics, as a bad breakdown index does in
// MaterializeUnitAt.
func (e *Engine) MaterializeAugmentedAt(base *Handle, bdim, ext int) []cache.Unit {
	if ext < 0 || ext >= len(e.dimNames) {
		panic(fmt.Sprintf("engine: unknown augmentation dimension index %d", ext))
	}
	if ext == bdim {
		panic(fmt.Sprintf("engine: augmentation dimension %q equals the breakdown", e.dimNames[ext]))
	}
	units, _ := e.scanPair(base, bdim, ext)
	return units
}

// ScanCostAt returns the cost a unit scan under h is charged, without
// scanning: the per-query overhead plus the per-row cost of the rows that
// match every filter of h — the rows h's plan visits, which is what every
// substrate reports. It is the one cost authority: the miner's commit-order
// accounting and QuickInsight both charge it, whichever substrate scans. The
// cost of a scan depends only on the subspace, not the breakdown, and an
// augmented scan of base b costs exactly ScanCostAt(b). The plan is memoized
// on the handle, so repeated estimates are one atomic load.
func (e *Engine) ScanCostAt(h *Handle) float64 {
	return perQuery + perRow*float64(h.plan(e.obs).rows)
}

// impactFallbackDim picks the breakdown for an impact scan: the first
// unfiltered dimension. If every dimension is filtered, grouping by a
// filtered one is still correct: the scan keeps the filter, so the unit
// holds exactly the one matching group.
func (e *Engine) impactFallbackDim(h *Handle) int {
	for d := range e.dimNames {
		if !h.Has(d) {
			return d
		}
	}
	return 0
}

// ImpactProbe describes how an impact value was (or would canonically be)
// obtained, so the miner can replay the lookup against its simulated cache:
// if any probe unit is cached the value is free, otherwise the fallback unit
// is scanned at Cost and enters the cache.
type ImpactProbe struct {
	// Handle is the probed subspace. The probe keys are (Handle, dim) for
	// every table dimension the handle does not filter, in table dimension
	// order; a cached unit on any of them serves the impact value.
	Handle *Handle
	// Fallback is the unit scanned when no probe key is cached.
	Fallback cache.UnitID
	// Cost is the cost of the fallback scan (ScanCostAt).
	Cost float64
}

// ImpactAt returns Impact_ds for the subspace of h (Equation 2): the impact
// measure's value on the subspace (impactSum) divided by its value on the
// whole dataset. The lookup is a query of the fallback unit, as the miner's
// replay charges it when no probe unit is cached, and the fallback unit is
// materialized into the query cache. The value is never read from a unit: a
// unit's sums depend on the scan that produced it (a basic and an augmented
// scan group a cell's additions differently), and which one filled the cache
// first depends on timing. The ImpactProbe records how the lookup is
// charged; it is the zero probe, with a nil Handle, for the empty subspace
// (impact 1 is free dataset metadata).
func (e *Engine) ImpactAt(h *Handle) (float64, ImpactProbe) {
	if h.Len() == 0 {
		return 1, ImpactProbe{}
	}
	fallback := e.impactFallbackDim(h)
	e.MaterializeUnitAt(h, fallback, nil)
	p := ImpactProbe{Handle: h, Fallback: e.UnitIDAt(h, fallback), Cost: e.ScanCostAt(h)}
	return e.impactSum(h) / e.totalImp, p
}

// impactSum returns the impact measure's value on h's subspace: the rows h's
// plan visits for COUNT, and for SUM the impact column added over those rows
// in ascending row order, the order totalImpactValue adds the whole table in.
// It is a pure function of the table and the subspace, so every impact the
// miner reads is the same whatever scanned what first; GroupImpactsAt
// computes the same values for a subspace's children.
func (e *Engine) impactSum(h *Handle) float64 {
	p := h.plan(e.obs)
	if e.impact.Agg == model.AggCount {
		return float64(p.rows)
	}
	return e.impactSums.Do(h.ord, func() float64 {
		vals, s := e.tab.MeasureColumn(e.impact.Column).Values(), 0.0
		for k := 0; k+1 < len(p.runs); k++ {
			start := int(p.runs[k].Row)
			for _, v := range vals[start : start+int(p.runs[k+1].Pos-p.runs[k].Pos)] {
				s += v
			}
		}
		return s
	})
}

// GroupImpactsAt returns the impact measure's value on every child subspace
// h ∧ (dimension bdim = group) of u, the unit of (h, bdim), aligned with
// u.Codes. For COUNT these are the unit's counts, which no scan order can
// change; for SUM one pass over h's plan adds each child's rows in ascending
// row order, so every value equals impactSum of the child's handle bit for
// bit.
func (e *Engine) GroupImpactsAt(h *Handle, bdim int, u cache.Unit) []float64 {
	if e.impact.Agg == model.AggCount {
		return u.Counts()
	}
	col := e.tab.Dimensions()[bdim]
	codes, vals := col.Codes(), e.tab.MeasureColumn(e.impact.Column).Values()
	sums := make([]float64, col.Cardinality())
	p := h.plan(e.obs)
	for k := 0; k+1 < len(p.runs); k++ {
		start := int(p.runs[k].Row)
		end := start + int(p.runs[k+1].Pos-p.runs[k].Pos)
		for r := start; r < end; r++ {
			sums[codes[r]] += vals[r]
		}
	}
	out := make([]float64, u.Len())
	for gi, code := range u.Codes {
		out[gi] = sums[code]
	}
	return out
}

// Extract materializes one measure's series from an already-fetched unit of
// ds's subspace and breakdown, rendering the group keys from the breakdown's
// dictionary; callers that evaluate several measures of the same (subspace,
// breakdown) family use it after one unit fetch.
func (e *Engine) Extract(u cache.Unit, ds model.DataScope) (*Series, error) {
	src, err := measureSource(u, ds.Measure)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, u.Len())
	if ds.Measure.Agg == model.AggAvg {
		counts := u.Counts()
		for i := range vals {
			vals[i] = src[i] / counts[i]
		}
	} else {
		copy(vals, src)
	}
	domain := e.tab.Dimension(ds.Breakdown).Domain()
	keys := make([]string, u.Len())
	for i, code := range u.Codes {
		keys[i] = domain[code]
	}
	return &Series{Scope: ds, Keys: keys, Values: vals}, nil
}

// SourceColumns appends to dst, for each measure of ms, the Data column that
// units laid out by cols hold for it (measureSource), or -1 where such units
// cannot answer it, as Extract would then fail. The miner resolves each
// layout once and classifies its units by index before the pattern-cache
// lookup, extracting a series only on a miss.
func SourceColumns(dst []int, cols *cache.Columns, ms []model.Measure) []int {
	for _, m := range ms {
		i, err := sourceColumn(cols, m)
		if err != nil {
			i = -1
		}
		dst = append(dst, i)
	}
	return dst
}

// measureSource returns the unit's stored column that measure m reads.
func measureSource(u cache.Unit, m model.Measure) ([]float64, error) {
	i, err := sourceColumn(u.Cols, m)
	if err != nil {
		return nil, err
	}
	return u.Col(i), nil
}

// sourceColumn returns the Data column of units laid out by cols that
// measure m reads: the per-group values themselves for COUNT, SUM, MIN and
// MAX, the sums AVG divides by the counts.
func sourceColumn(cols *cache.Columns, m model.Measure) (int, error) {
	var i int
	var ok bool
	switch m.Agg {
	case model.AggCount:
		return 0, nil
	case model.AggSum, model.AggAvg:
		i, ok = cols.SumColumn(m.Column)
	case model.AggMin:
		i, ok = cols.MinColumn(m.Column)
	case model.AggMax:
		i, ok = cols.MinColumn(m.Column)
		i++
	default:
		return 0, fmt.Errorf("engine: unsupported aggregate %v", m.Agg)
	}
	if !ok {
		return 0, fmt.Errorf("engine: unit lacks column %q", m.Column)
	}
	return i, nil
}
