// Package metainsight is a from-scratch Go implementation of MetaInsight
// (Ma, Ding, Han, Zhang — SIGMOD 2021): automatic discovery of structured
// knowledge from multi-dimensional data for exploratory data analysis.
//
// A MetaInsight organizes the basic data patterns of a homogeneous data
// pattern (HDP) into commonness(es) — general knowledge like "most cities
// had their lowest sales in April" — and exceptions — "except San Diego,
// whose low month was July" — concretizing the induction and validation
// steps of an EDA iteration. The library contains the full system described
// in the paper: the columnar query substrate with basic and augmented
// queries, eleven basic-data-pattern evaluators, the HDP formulation with
// three extension strategies, the conciseness/impact/actionability scoring
// function, the pattern-guided progressive miner with priority queues and
// two caches, and the redundancy-aware top-k ranking algorithm.
//
// Quick start — a Session loads and indexes once and serves many analyses:
//
//	tab, err := metainsight.OpenCSV("sales.csv")
//	s, err := metainsight.NewSession(tab)
//	an, err := s.Analyze(ctx, metainsight.Request{TopK: 10})
//	for _, in := range an.Insights {
//		fmt.Println(in.Description())
//	}
//
// Every setting has one spelling. Per-call knobs (measures, budgets, τ,
// top-k, pruning, progress, observer) travel in the Request; the
// pattern-registration options are the only session-wide settings:
//
//	s, err := metainsight.NewSession(tab,
//		metainsight.WithCorrelationPatterns([2]metainsight.Measure{
//			metainsight.Sum("Sales"), metainsight.Sum("Profit"),
//		}),
//	)
//	an, err := s.Analyze(ctx, metainsight.Request{
//		TopK:   10,
//		Budget: metainsight.Budget{Time: 5 * time.Second},
//		Tau:    0.5,
//	})
//
// The execution layout is fixed: 8 mining workers, as in the paper, and
// each physical scan spread over GOMAXPROCS goroutines. Results are
// bit-identical at any worker count and any scan parallelism, so neither is
// a setting.
//
// NewAnalyzer, WithObserver, WithProgress and WithCostBudget remain as
// deprecated shims over the Session API; see README.md for the migration
// table.
package metainsight

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"metainsight/internal/core"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/miner"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
	"metainsight/internal/ranker"
	"metainsight/internal/render"
	"metainsight/internal/stats"
)

// Re-exported vocabulary. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Dataset is an immutable columnar multi-dimensional table.
	Dataset = dataset.Table
	// Field describes one column (name + kind).
	Field = model.Field
	// FieldKind classifies a column as categorical, temporal or measure.
	FieldKind = model.FieldKind
	// Measure pairs an aggregate (SUM/COUNT/AVG/MIN/MAX) with a column.
	Measure = model.Measure
	// Subspace is a set of dimension filters.
	Subspace = model.Subspace
	// Filter is one dimension filter.
	Filter = model.Filter
	// DataScope is the paper's ⟨subspace, breakdown, measure⟩ 3-tuple.
	DataScope = model.DataScope
	// MetaInsight is a scored, categorized homogeneous data pattern.
	MetaInsight = core.MetaInsight
	// MiningResult holds all mined MetaInsight candidates plus statistics.
	MiningResult = miner.Result
	// MiningStats aggregates the run counters.
	MiningStats = miner.Stats
	// PatternType enumerates the 11 basic data pattern types.
	PatternType = pattern.Type
	// Highlight encodes a pattern's essential characteristics; equality of
	// highlights defines the Sim similarity of Equation 8.
	Highlight = pattern.Highlight
	// PatternEvaluation is the outcome of one pattern-type evaluation.
	PatternEvaluation = pattern.Evaluation
	// CustomPattern is a user-supplied domain-specific pattern type — the
	// extensibility hook of Section 3.1. Custom types participate in HDPs,
	// similarity, commonness/exception categorization and scoring exactly
	// like the built-ins.
	CustomPattern = pattern.CustomEvaluator
	// Observer collects metrics, phase timings and (optionally) a structured
	// run trace from an analysis. Attach one with Request.Observer; read it
	// back with Analysis.Snapshot or Observer.Trace. Observers are provably inert:
	// attaching one never changes mining results or statistics.
	Observer = obs.Observer
	// ObserverOptions configures NewObserver.
	ObserverOptions = obs.Options
	// MetricsSnapshot is a point-in-time copy of an observer's counters,
	// gauges, histograms and phase timers, with stable JSON encoding.
	MetricsSnapshot = obs.Snapshot
	// TraceEvent is one structured run-trace event (pop, query execution,
	// cache hit/miss, pattern evaluation, prune, dedup, store, budget stop).
	TraceEvent = obs.Event
	// LoadStats counts what CSV ingestion kept and dropped
	// (Dataset.LoadStats).
	LoadStats = dataset.LoadStats
	// RowPolicy selects how ingestion treats a defective row (RowError or
	// RowSkip).
	RowPolicy = dataset.RowPolicy
)

// Row-policy constants for WithRaggedRows / WithBadMeasures.
const (
	// RowError rejects the whole load on the first defective row (default).
	RowError = dataset.RowError
	// RowSkip drops defective rows and counts them in Dataset.LoadStats.
	RowSkip = dataset.RowSkip
)

// NewObserver creates an observability collector to attach via
// Request.Observer.
// A zero ObserverOptions records metrics and phase timers only; set
// TraceCapacity to also keep a ring-buffered structured run trace.
func NewObserver(opts ObserverOptions) *Observer { return obs.New(opts) }

// Column-kind constants, re-exported for schema construction.
const (
	Categorical = model.KindCategorical
	Temporal    = model.KindTemporal
	MeasureKind = model.KindMeasure
)

// Aggregate constructors, re-exported for measure sets.
var (
	// Sum constructs SUM(column).
	Sum = model.Sum
	// Count constructs COUNT(column); Count("*") is COUNT(*).
	Count = model.Count
	// Avg constructs AVG(column).
	Avg = model.Avg
	// Min constructs MIN(column).
	Min = model.Min
	// Max constructs MAX(column).
	Max = model.Max
)

// OpenCSV loads a CSV file with a header row, inferring column kinds
// (numeric → measure; months/quarters/years/dates → temporal; otherwise
// categorical).
func OpenCSV(path string, opts ...LoadOption) (*Dataset, error) {
	o := dataset.LoadOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	return dataset.LoadCSVFile(path, o)
}

// ReadCSV loads CSV data from a reader; see OpenCSV.
func ReadCSV(r io.Reader, name string, opts ...LoadOption) (*Dataset, error) {
	o := dataset.LoadOptions{Name: name}
	for _, opt := range opts {
		opt(&o)
	}
	return dataset.LoadCSV(r, o)
}

// FromRecords builds a dataset from an in-memory header and string records,
// applying the same kind inference as OpenCSV.
func FromRecords(name string, header []string, records [][]string, opts ...LoadOption) (*Dataset, error) {
	o := dataset.LoadOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	return dataset.FromRecords(name, header, records, o)
}

// DeriveTemporal returns a copy of the dataset with temporal hierarchy
// columns ("<col> Year", "<col> Quarter", "<col> Month" and, for
// day-precision dates, "<col> Weekday") derived from a date column. The
// derived granularities are what the breakdown extension strategy (Section
// 3.2) varies over.
func DeriveTemporal(d *Dataset, dateColumn string) (*Dataset, error) {
	return dataset.DeriveTemporal(d, dateColumn)
}

// NewDatasetBuilder constructs a typed dataset row by row, for callers that
// already know their schema.
func NewDatasetBuilder(name string, fields []Field) *dataset.Builder {
	return dataset.NewBuilder(name, fields)
}

// LoadOption customizes CSV ingestion.
type LoadOption func(*dataset.LoadOptions)

// WithColumnKind forces a column to a specific kind, bypassing inference.
func WithColumnKind(column string, kind FieldKind) LoadOption {
	return func(o *dataset.LoadOptions) {
		if o.KindOverrides == nil {
			o.KindOverrides = map[string]FieldKind{}
		}
		o.KindOverrides[column] = kind
	}
}

// WithMaxDimensionCardinality drops categorical columns with more distinct
// values (e.g. free-text ID columns) from the analysis.
func WithMaxDimensionCardinality(n int) LoadOption {
	return func(o *dataset.LoadOptions) { o.MaxDimensionCardinality = n }
}

// WithRaggedRows selects the treatment of rows whose column count differs
// from the header's: RowError (default) rejects the load, RowSkip drops and
// counts them (Dataset.LoadStats).
func WithRaggedRows(p RowPolicy) LoadOption {
	return func(o *dataset.LoadOptions) { o.RaggedRows = p }
}

// WithBadMeasures selects the treatment of rows carrying a NaN, ±Inf or
// unparseable measure cell: RowError (default) rejects the load, RowSkip
// drops and counts them (Dataset.LoadStats).
func WithBadMeasures(p RowPolicy) LoadOption {
	return func(o *dataset.LoadOptions) { o.BadMeasures = p }
}

// Analyzer runs MetaInsight mining and ranking over one dataset.
type Analyzer struct {
	d  *Dataset
	o  *analyzerOptions
	in *engine.Interner // the session's intern table and memos every MineContext call reuses

	// The state of one run, replaced before every MineContext call but the first:
	// the engine and the miner config. mined marks that a MineContext call has run.
	eng   *engine.Engine
	cfg   miner.Config
	mined bool

	obs        *obs.Observer
	timeBudget time.Duration // anchored at each MineContext call
}

// Option configures a Session (or the deprecated Analyzer) at construction.
type Option func(*analyzerOptions)

// analyzerOptions is one analysis' resolved configuration: the session's
// options applied over the defaults, then the request's fields (resolve).
type analyzerOptions struct {
	measures       []Measure
	impact         Measure
	minerCfg       miner.Config
	customPatterns []CustomPattern
	correlations   [][2]Measure
	timeBudget     time.Duration
	costBudget     float64
	observer       *obs.Observer
	// scanPar is the engine's scan parallelism: 0, one goroutine per core,
	// in every production session. Only the package's tests set another,
	// to prove results do not depend on it.
	scanPar int
}

// WithCostBudget bounds mining by deterministic engine cost units (one unit
// approximates a millisecond of an IPC-backed query substrate). Runs with a
// cost budget are exactly reproducible.
//
// Deprecated: use Request.Budget.Cost. Kept only because the frozen
// benchmark/ harness compiles against it; it goes when that harness moves to
// the Session API (ROADMAP.md, the benchmark-port item, step ii).
func WithCostBudget(units float64) Option {
	return func(o *analyzerOptions) { o.costBudget = units }
}

// WithObserver attaches an observability collector to every analysis of the
// session; see Request.Observer.
//
// Deprecated: use Request.Observer. Kept only because the frozen benchmark/
// harness compiles against it; it goes when that harness moves to the Session
// API (ROADMAP.md, the benchmark-port item, step ii).
func WithObserver(ob *Observer) Option {
	return func(o *analyzerOptions) { o.observer = ob }
}

// WithProgress registers a callback invoked whenever the miner stores a new
// MetaInsight; see Request.Progress.
//
// Deprecated: use Request.Progress. Kept only because the frozen benchmark/
// harness compiles against it; it goes when that harness moves to the Session
// API (ROADMAP.md, the benchmark-port item, step ii).
func WithProgress(fn func(*MetaInsight)) Option {
	return func(o *analyzerOptions) { o.minerCfg.OnMetaInsight = fn }
}

// WithCorrelationPatterns registers, per (primary, secondary) measure pair,
// a scope-aware pattern type "Correlation(primary, secondary)" that holds
// when the two measures' series over a scope's breakdown are significantly
// correlated (Pearson, p < 0.05, |r| ≥ 0.5; highlight: "positive" or
// "negative"). Correlation scopes carry two measures — the multi-measure
// ("scatter plot") analysis class the paper's Section 6 identifies beyond
// single-measure data scopes and defers to future work. The pattern fires on
// the primary measure's scopes only, so each pair yields one HDP family;
// commonness and exceptions then read e.g. "for most Cities, Sales and
// Profit are positively correlated, except …".
func WithCorrelationPatterns(pairs ...[2]Measure) Option {
	return func(o *analyzerOptions) {
		o.correlations = append(o.correlations, pairs...)
	}
}

// WithCustomPatternTypes registers additional domain-specific pattern types
// (Section 3.1's extensibility). Each custom pattern is assigned a Type and
// evaluated on every data scope alongside the built-in eleven.
func WithCustomPatternTypes(evals ...CustomPattern) Option {
	return func(o *analyzerOptions) {
		o.customPatterns = append(o.customPatterns, evals...)
	}
}

// ErrConflictingBudgets is returned when an analysis sets both a time budget
// and a cost budget. The two budgets have incompatible semantics — cost
// budgets are deterministic and reproducible, time budgets are not — so the
// library refuses to guess which one should win.
var ErrConflictingBudgets = errors.New(
	"metainsight: Budget.Time and Budget.Cost are mutually exclusive; pick one")

// NewAnalyzer creates an analyzer over a dataset.
//
// Deprecated: use NewSession and Session.Analyze (see the migration table in
// README.md). NewAnalyzer builds through the same path as Session.Analyze
// with a zero Request, so results, statistics and traces are bit-identical
// across the two. Kept only because the frozen benchmark/ harness compiles
// against it; it goes when that harness moves to the Session API (ROADMAP.md,
// the benchmark-port item, step ii).
func NewAnalyzer(d *Dataset, opts ...Option) (*Analyzer, error) {
	s, err := NewSession(d, opts...)
	if err != nil {
		return nil, err
	}
	return s.analyzer(Request{})
}

// MineContext runs the mining procedure, returning every qualified
// MetaInsight candidate (deduplicated, score-descending), built, plus run
// statistics.
//
// Each call is hermetic: its accounting replay, the run's ledger, starts
// empty, so a second call returns exactly what the first did.
// It reuses the session's intern table, the units earlier calls scanned and
// the scopes they evaluated, so a second call scans and evaluates nothing.
// Calls must not overlap; a Session serves concurrent analyses.
//
// The context is checked at every unit-commit boundary, so a cancelled run
// stops on a whole-unit boundary and returns the best-so-far MetaInsights
// with Stats.Cancelled set. A run is never torn mid-commit — everything in
// the result was fully accounted.
func (a *Analyzer) MineContext(ctx context.Context) *MiningResult {
	res := a.mine(ctx)
	res.All()
	return res
}

// mine runs the mining procedure and returns its result with the candidates
// as rows: a MetaInsight is built only when the caller reads it.
func (a *Analyzer) mine(ctx context.Context) *MiningResult {
	if a.mined {
		if err := a.reset(); err != nil {
			return &MiningResult{Err: err}
		}
	}
	a.mined = true
	cfg := a.cfg
	// Time budgets anchor at the call to MineContext, not at analyzer creation,
	// and never override an explicit cost budget.
	if a.timeBudget > 0 && cfg.Budget.Cost == 0 {
		cfg.Budget.Deadline = time.Now().Add(a.timeBudget)
	}
	return miner.New(a.eng, cfg).RunContext(ctx)
}

// Rank selects the top-k MetaInsights with high usefulness and low
// inter-MetaInsight redundancy (the paper's greedy second-order algorithm).
func (a *Analyzer) Rank(result *MiningResult, k int) []*Insight {
	t0 := time.Now()
	top, sel := result.Top(k)
	if a.obs.Enabled() {
		a.obs.Phase(obs.PhaseRank, time.Since(t0))
		a.obs.SetGauge("ranker.pool", float64(sel.Pool))
		a.obs.SetGauge("ranker.selected", float64(sel.Selected))
		a.obs.SetGauge("ranker.overlap_evals", float64(sel.OverlapEvals))
	}
	out := make([]*Insight, len(top))
	for i, mi := range top {
		out[i] = &Insight{mi: mi, namer: a.cfg.Pattern.TypeName}
	}
	return out
}

// Snapshot publishes the physical caches' occupancy (cache.query.entries and
// cache.pattern.entries, the session's unit memo and pattern memo for the
// run's MIN/MAX set, so both count what earlier requests left too) beside
// the slots their ordinal-indexed chunks hold (cache.query.slots and
// cache.pattern.slots: entries over slots is how densely the session's
// ordinals fill them), their waiters during the run (cache.flight.*) and the
// size of the session's intern table (engine.interned_handles, DESIGN.md
// §14) as gauges into the attached observer, then returns a point-in-time
// copy of all metrics, phase timers and trace totals. The run's ledger is
// the miner's own gauges (miner.cost_used and miner.queries.*, the values of
// its Stats), set when a MineContext call ends. Cache hit rates and sizes are
// the run's canonical accounting, already published as the miner.qcache.*
// and miner.pcache.* gauges; the physical caches count nothing else. Without
// an observer it returns an empty snapshot. Reading a snapshot never
// perturbs the analysis.
func (a *Analyzer) Snapshot() MetricsSnapshot {
	if !a.obs.Enabled() {
		return MetricsSnapshot{}
	}
	qc, pc := a.eng.QueryCache(), a.eng.PatternCache()
	a.obs.SetGauge("cache.query.entries", float64(qc.Stats().Entries))
	a.obs.SetGauge("cache.query.slots", float64(qc.Slots()))
	a.obs.SetGauge("cache.pattern.entries", float64(pc.Stats().Entries))
	a.obs.SetGauge("cache.pattern.slots", float64(pc.Slots()))
	a.obs.SetGauge("engine.interned_handles", float64(a.in.Len()))
	// Workers that found their unit or scope already being computed by
	// another worker, and how long they then waited for it.
	fs := a.eng.FlightStats()
	a.obs.SetGauge("cache.flight.followers", float64(fs.Followers))
	a.obs.SetGauge("cache.flight.wait_ns", float64(fs.Wait))
	a.obs.MarkTiming("cache.flight.followers", "cache.flight.wait_ns")
	return a.obs.Snapshot()
}

// Engine exposes the query engine of the last MineContext call (before the first,
// the one it will use) for advanced use (issuing basic queries directly).
// Engine queries are never charged: they move no ledger and no Stats.
func (a *Analyzer) Engine() *engine.Engine { return a.eng }

// correlationEvaluator builds the scope-aware evaluator behind
// WithCorrelationPatterns: it fetches the secondary measure's series for the
// same scope (a cache hit — the query-cache unit spans all measures) and
// tests the paired series for significant correlation.
func correlationEvaluator(eng *engine.Engine, primary, secondary Measure) pattern.CustomEvaluator {
	const (
		alpha   = 0.05
		minAbsR = 0.5
	)
	return pattern.CustomEvaluator{
		Name:     fmt.Sprintf("Correlation(%s, %s)", primary, secondary),
		Requires: []Measure{secondary},
		EvaluateScope: func(scope DataScope, keys []string, values []float64) pattern.Evaluation {
			if scope.Measure != primary || scope.Breakdown == "" || len(values) < 5 {
				return pattern.Evaluation{}
			}
			other := scope
			other.Measure = secondary
			series, err := eng.BasicQuery(other)
			if err != nil || series.Len() != len(values) {
				return pattern.Evaluation{}
			}
			// Both series come from the same unit, so keys align; verify
			// defensively.
			for i, k := range series.Keys {
				if keys[i] != k {
					return pattern.Evaluation{}
				}
			}
			res := stats.PearsonR(values, series.Values)
			if res.P >= alpha || math.Abs(res.R) < minAbsR {
				return pattern.Evaluation{}
			}
			label := "positive"
			if res.R < 0 {
				label = "negative"
			}
			strength := res.R
			if strength < 0 {
				strength = -strength
			}
			return pattern.Evaluation{
				Valid:     true,
				Highlight: Highlight{Label: label},
				Strength:  strength,
			}
		},
	}
}

// Insight is a presentation wrapper around a mined MetaInsight.
type Insight struct {
	mi    *core.MetaInsight
	namer render.TypeNamer
}

// MetaInsight returns the underlying structured result.
func (in *Insight) MetaInsight() *MetaInsight { return in.mi }

// Score returns the usefulness score (Equation 18).
func (in *Insight) Score() float64 { return in.mi.Score }

// HasExceptions reports whether the insight carries exceptions — the
// property the paper's user study links to follow-up-analysis interest.
func (in *Insight) HasExceptions() bool { return in.mi.HasExceptions() }

// Description renders the insight as a sentence in the paper's narrative
// style ("For most Cities, Month: Apr has the lowest SUM(Sales), except…").
func (in *Insight) Description() string { return render.DescribeMetaInsightNamed(in.mi, in.namer) }

// FlatList renders the Flat-List Representation: every basic data pattern of
// the HDP described separately.
func (in *Insight) FlatList() []string { return render.FlatListNamed(in.mi, in.namer) }

// String implements fmt.Stringer.
func (in *Insight) String() string {
	return fmt.Sprintf("[%.3f] %s", in.mi.Score, in.Description())
}

// MarshalJSON serializes the insight as a structured JSON document
// (commonnesses with members and ratios, categorized exceptions, score
// components and the narrative description), for export to downstream
// tools.
func (in *Insight) MarshalJSON() ([]byte, error) {
	return json.Marshal(render.ToJSON(in.mi, in.namer))
}

// WriteReport renders the given insights as a markdown EDA report: one
// section per insight with its narrative, score breakdown, commonness
// membership, categorized exceptions, sparklines of the raw distributions
// and a flat-list appendix.
func (a *Analyzer) WriteReport(w io.Writer, insights []*Insight, title string) error {
	mis := make([]*core.MetaInsight, len(insights))
	for i, in := range insights {
		mis[i] = in.mi
	}
	return render.MarkdownReport(w, mis, render.ReportOptions{
		Title:  title,
		Engine: a.eng,
		Namer:  a.cfg.Pattern.TypeName,
	})
}

// NewProgressiveRanker returns a live diversified top-k maintainer for
// budgeted runs: pass its Add method as Request.Progress and read TopK at any
// time while mining is still in flight.
//
//	prog := metainsight.NewProgressiveRanker(10)
//	go s.Analyze(ctx, metainsight.Request{
//		TopK:     10,
//		Budget:   metainsight.Budget{Time: 30 * time.Second},
//		Progress: prog.Add,
//	})
//	... // prog.TopK() serves the current suggestion
func NewProgressiveRanker(k int) *ranker.Progressive {
	return ranker.NewProgressive(k)
}

// CustomPatternType returns the PatternType assigned to the i-th registered
// custom pattern (WithCustomPatternTypes entries first, then one per
// WithCorrelationPatterns pair).
func CustomPatternType(i int) PatternType { return pattern.CustomType(i) }

// Describe renders any mined MetaInsight as a sentence in the paper's
// narrative style; it is the function behind Insight.Description for callers
// holding a raw *MetaInsight from MiningResult.All.
func Describe(mi *MetaInsight) string { return render.DescribeMetaInsight(mi) }

// FlatListOf renders the Flat-List Representation of any mined MetaInsight.
func FlatListOf(mi *MetaInsight) []string { return render.FlatList(mi) }
