package metainsight

// The Session API is the package's primary analysis surface: a Session
// loads and indexes a dataset once and then serves many Analyze calls, each
// parameterized by a Request. Every setting has exactly one spelling:
// per-call knobs (measures, budgets, τ, top-k, pruning, progress, observer)
// live only in the Request; session-wide settings are only the pattern
// registration options, which have no per-call meaning. The execution layout
// is fixed: 8 mining workers, each scan spread over GOMAXPROCS goroutines;
// results are bit-identical at any layout, so no caller needs another.
// resolve merges the options and the request into one configuration per
// call.
//
// Every Analyze call is hermetic: its accounting, the run's ledger, is the
// miner's commit-order replay, which starts empty; so its
// result — insights, statistics and trace — is bit-identical to a fresh
// Analyzer run with the same settings, regardless of what the session served
// before. What the session shares across calls is what a request computes
// but never decides by: the dataset's dictionaries and posting sets (cached
// on the dataset itself), and one intern table whose handles carry every
// subspace's scan plan and which holds every unit any request scanned and
// every scope it evaluated (one query cache, pair memo and pattern memo per
// MIN/MAX set). A subspace mined by any request is planned once for the
// session, a unit scanned once and a scope evaluated once; a repeated
// request scans and evaluates nothing. The scan substrate itself is a cheap
// value built per request over that table.
//
// The pre-Session construction surface survives only as the deprecated
// NewAnalyzer, WithObserver, WithProgress and WithCostBudget shims; see the
// migration table in README.md.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"metainsight/internal/engine"
	"metainsight/internal/miner"
	"metainsight/internal/pattern"
)

// Budget bounds one Analyze call. At most one field may be set: cost
// budgets are deterministic and exactly reproducible, time budgets are not,
// so the library refuses to combine them (ErrConflictingBudgets).
type Budget struct {
	// Time bounds mining by wall clock; mining is progressive and returns
	// the best-so-far insights at the deadline.
	Time time.Duration
	// Cost bounds mining by deterministic engine cost units.
	Cost float64
}

// Request parameterizes one Session.Analyze call; it is the only home of
// the per-call settings. Zero-valued fields take the library defaults.
type Request struct {
	// Measures is the mined measure set M (default: SUM over every measure
	// column plus COUNT(*)).
	Measures []Measure
	// ImpactMeasure sets the impact measure (must be SUM or COUNT; default
	// COUNT(*)).
	ImpactMeasure Measure
	// TopK is how many ranked insights to return (the paper's suggestion
	// count). Values <= 0 return no ranked insights; the Analysis still
	// carries every mined candidate in Result.
	TopK int
	// MaxFilters caps the number of subspace filters (default 3; negative
	// values are rejected).
	MaxFilters int
	// Budget bounds the call by wall clock or by deterministic cost units.
	Budget Budget
	// Tau overrides the commonness threshold τ (default 0.5). A non-zero τ
	// must lie strictly between 0 and 1: a commonness needs a share of the
	// patterns above τ, and the score's S* term is undefined outside (0, 1).
	Tau float64
	// Progress, when set, is invoked for each newly stored MetaInsight,
	// enabling progressive display during a budgeted run. It is called
	// serially from the miner's dispatcher goroutine, in deterministic
	// discovery order, and should be fast: unit commits pause while it runs.
	Progress func(*MetaInsight)
	// Observer, when set, receives this call's atomic metrics and phase
	// timers, plus (if it was built with a trace capacity) a structured run
	// trace recorded in deterministic commit order. Observers are inert:
	// results and statistics are bit-identical with or without one, at any
	// worker count. Read it back with Analysis.Snapshot.
	Observer *Observer
}

// Validation errors. Conflicting or malformed settings are rejected by
// NewSession or Session.Analyze with one of these (test with errors.Is)
// instead of surfacing as surprising behavior mid-run.
var (
	// ErrNegativeOption: Request.MaxFilters or a budget was negative, or the
	// cost budget NaN.
	ErrNegativeOption = errors.New("metainsight: option value must be non-negative")
	// ErrSessionClosed: Analyze was called on a closed session.
	ErrSessionClosed = errors.New("metainsight: session is closed")
)

// resolve builds one analysis' configuration: the session's options applied
// over the defaults, then the request's fields written over them, then one
// validation pass. Every construction path (NewSession with a zero Request,
// Session.Analyze, NewAnalyzer) funnels through it, so conflicts surface
// identically everywhere.
func resolve(opts []Option, req Request) (*analyzerOptions, error) {
	o := &analyzerOptions{minerCfg: miner.DefaultConfig()}
	for _, opt := range opts {
		opt(o)
	}
	if req.Measures != nil {
		o.measures = req.Measures
	}
	if req.ImpactMeasure != (Measure{}) {
		o.impact = req.ImpactMeasure
	}
	if req.MaxFilters != 0 {
		o.minerCfg.MaxSubspaceFilters = req.MaxFilters
	}
	if req.Budget.Time != 0 {
		o.timeBudget = req.Budget.Time
	}
	if req.Budget.Cost != 0 {
		o.costBudget = req.Budget.Cost
	}
	if req.Tau != 0 {
		o.minerCfg.Tau = req.Tau
	}
	if req.Progress != nil {
		o.minerCfg.OnMetaInsight = req.Progress
	}
	if req.Observer != nil {
		o.observer = req.Observer
	}

	if o.timeBudget < 0 {
		return nil, fmt.Errorf("%w: time budget %v", ErrNegativeOption, o.timeBudget)
	}
	if !(o.costBudget >= 0) {
		return nil, fmt.Errorf("%w: cost budget %v", ErrNegativeOption, o.costBudget)
	}
	if o.timeBudget > 0 && o.costBudget > 0 {
		return nil, ErrConflictingBudgets
	}
	if tau := o.minerCfg.Tau; !(tau > 0 && tau < 1) {
		return nil, fmt.Errorf("metainsight: τ = %v is outside (0, 1)", tau)
	}
	if o.minerCfg.MaxSubspaceFilters < 0 {
		return nil, fmt.Errorf("%w: max filters %d", ErrNegativeOption, o.minerCfg.MaxSubspaceFilters)
	}
	return o, nil
}

// Session is a long-lived analysis handle over one dataset: NewSession
// loads and validates once, Analyze serves many requests. Sessions are safe
// for concurrent Analyze calls; each call is hermetic (an accounting replay,
// the run's ledger, that starts empty), sharing only the dataset's read-only
// index structures and the session's intern table with its plans, scanned
// units and pattern evaluations.
type Session struct {
	d    *Dataset
	opts []Option

	mu     sync.Mutex
	closed bool
	in     *engine.Interner // every request's handles, scan plans and units
}

// NewSession creates a session over a dataset. Construction validates the
// option combination eagerly (see the validation errors), so a
// misconfigured session fails here rather than on first Analyze.
func NewSession(d *Dataset, opts ...Option) (*Session, error) {
	if d == nil {
		return nil, errors.New("metainsight: nil dataset")
	}
	if _, err := resolve(opts, Request{}); err != nil {
		return nil, err
	}
	return &Session{d: d, opts: append([]Option(nil), opts...), in: engine.NewInterner(d)}, nil
}

// Close releases the session's intern table — its handles, scan plans,
// scanned units and pattern evaluations — and marks the session closed;
// subsequent Analyze calls fail with ErrSessionClosed. In-flight Analyze
// calls are unaffected (they hold the table already). Close is idempotent. A
// resident server holding a registry of sessions should Close a session when
// evicting it, so the plan, unit and evaluation memory is reclaimable as
// soon as its last request, and the last Analysis it returned, is gone.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.in = nil
	return nil
}

// Analysis is the outcome of one Session.Analyze call: the ranked top-k
// insights plus the full mining result (every candidate and the run
// statistics).
type Analysis struct {
	// Insights is the ranked, redundancy-aware top-k selection.
	Insights []*Insight
	// Result holds every mined MetaInsight candidate plus run statistics.
	// Its candidates are built on demand: Result.All builds and returns
	// them, and Result.MetaInsights is nil until it has run.
	Result *MiningResult

	a *Analyzer
}

// Snapshot returns a point-in-time copy of the call's observer metrics; see
// Analyzer.Snapshot.
func (an *Analysis) Snapshot() MetricsSnapshot { return an.a.Snapshot() }

// WriteReport renders the analysis' ranked insights as a markdown EDA
// report.
func (an *Analysis) WriteReport(w io.Writer, title string) error {
	return an.a.WriteReport(w, an.Insights, title)
}

// Engine exposes the call's query engine for ad-hoc follow-up queries — the
// "exception as a new entry point" loop of exploratory analysis. Engine
// queries are never charged: they move no ledger and no Result.Stats.
func (an *Analysis) Engine() *engine.Engine { return an.a.Engine() }

// Analyze mines and ranks one request. A cancelled context stops mining at
// the next unit commit and still ranks whatever was mined.
func (s *Session) Analyze(ctx context.Context, req Request) (*Analysis, error) {
	a, err := s.analyzer(req)
	if err != nil {
		return nil, err
	}
	res := a.mine(ctx)
	return &Analysis{Insights: a.Rank(res, req.TopK), Result: res, a: a}, res.Err
}

// analyzer builds the per-request execution state: session options plus the
// request's overrides, resolved and validated, over the session's intern
// table. It is the single construction path behind both Session.Analyze and
// the deprecated NewAnalyzer shim, which is what makes the two surfaces
// bit-identical.
func (s *Session) analyzer(req Request) (*Analyzer, error) {
	s.mu.Lock()
	closed, in := s.closed, s.in
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	o, err := resolve(s.opts, req)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{d: s.d, o: o, in: in, obs: o.observer, timeBudget: o.timeBudget}
	if err := a.reset(); err != nil {
		return nil, err
	}
	return a, nil
}

// reset gives the analyzer the state of one fresh run: an engine over the
// session's intern table and a miner config. The miner
// takes the engine's pattern memo, the session's for the run's MIN/MAX set,
// whose evaluations earlier runs may have made.
func (a *Analyzer) reset() error {
	o := a.o
	eng, err := engine.New(a.d, a.engineConfig())
	if err != nil {
		return err
	}
	cfg := o.minerCfg
	if len(o.customPatterns) > 0 || len(o.correlations) > 0 {
		cfg.Pattern.Custom = append(cfg.Pattern.Custom, o.customPatterns...)
		for _, pair := range o.correlations {
			cfg.Pattern.Custom = append(cfg.Pattern.Custom, correlationEvaluator(eng, pair[0], pair[1]))
		}
	}
	cfg.Observer = o.observer
	cfg.Budget.Cost = o.costBudget
	a.eng, a.cfg = eng, cfg
	return nil
}

// engineConfig is the configuration of one run's engine: the resolved
// options and the session's intern table, whose query cache, pair memo and
// pattern memo for the run's MIN/MAX set the engine uses.
func (a *Analyzer) engineConfig() engine.Config {
	o := a.o
	// The needed-aggregate set: measures that registered evaluators will
	// query beyond the mined measure set. Custom patterns declare theirs via
	// CustomEvaluator.Requires; each correlation pair queries its secondary
	// measure for the primary's scopes. engine.New derives from this which
	// MIN/MAX accumulators the default scan substrate materializes.
	reqCfg := pattern.Config{Custom: o.customPatterns}
	for _, pair := range o.correlations {
		reqCfg.Custom = append(reqCfg.Custom, pattern.CustomEvaluator{
			Requires: []Measure{pair[0], pair[1]},
		})
	}
	return engine.Config{
		Measures:        o.measures,
		ImpactMeasure:   o.impact,
		ExtraMeasures:   reqCfg.RequiredMeasures(),
		ScanParallelism: o.scanPar,
		Observer:        o.observer,
		Interner:        a.in,
	}
}
