package metainsight

// The Session API is the package's primary analysis surface: a Session
// loads and indexes a dataset once and then serves many Analyze calls, each
// parameterized by a Request. Construction-time settings (execution layout,
// resilience, durability, custom patterns, ranking weights) are grouped
// into typed configs attached via SessionOption; per-call knobs (measures,
// budgets, τ, top-k) travel in the Request.
//
// Every Analyze call is hermetic: it runs with fresh query/pattern caches
// and a fresh meter, so its result — insights, statistics and trace — is
// bit-identical to a fresh Analyzer run with the same settings, regardless
// of what the session served before. What the session shares across calls
// is the expensive read-only state: the dataset's dictionaries, posting
// lists and zone maps (cached on the dataset itself), and the physical scan
// substrates (intern tables, plan caches, accumulator pools), reused from a
// registry keyed by their full configuration.
//
// The pre-Session construction surface (NewAnalyzer, Analyze and the flat
// With* options) remains supported as thin deprecated shims over this API;
// see the migration table in README.md.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/miner"
	"metainsight/internal/pattern"
	"metainsight/internal/ranker"
)

// SessionOption configures a Session at construction. It is the same type
// as the legacy Option, so every existing With* option can be passed to
// NewSession unchanged; prefer the grouped WithExec / WithResilience /
// WithDurability configs for new code.
type SessionOption = Option

// ExecConfig groups the execution-layout settings: inter-query parallelism
// (Workers) and intra-scan parallelism (ScanParallelism). Zero-valued fields
// leave the corresponding setting at its prior or default value, so
// partially-filled configs compose with other options.
type ExecConfig struct {
	// Workers is the number of evaluation goroutines (default 8). Results
	// are bit-identical for any value.
	Workers int
	// ScanParallelism is how many goroutines one physical scan may use — the
	// one way a scan spreads over cores: 0 (the default) is GOMAXPROCS, 1 is
	// the sequential path, n > 1 is n. Bit-identical for any value; see
	// WithScanParallelism.
	ScanParallelism int
}

// ResilienceConfig groups the failure-handling settings: what a run does
// when the Substrate returns errors. A failed query is skipped and counted
// (Stats.FailedUnits) and the run finishes best-effort; this sets when that
// result is flagged. A zero-valued field leaves the setting unchanged.
type ResilienceConfig struct {
	// DegradedThreshold is the query failure rate above which a run is
	// flagged degraded (Result.Err wraps ErrDegraded). 0 keeps the default
	// (0.1); negative flags any failure; >= 1 never flags.
	DegradedThreshold float64
}

// DurabilityConfig groups crash-safety: checkpoint journaling and resume. A
// resumed run continues bit-identically except under Budget.Time, which
// re-anchors on resume.
type DurabilityConfig struct {
	// CheckpointDir is the checkpoint directory. Empty disables
	// checkpointing.
	CheckpointDir string
	// Every is the snapshot cadence in unit commits (<= 0 defaults to 256).
	Every int64
	// Resume restores the run from CheckpointDir instead of starting fresh.
	Resume bool
}

// WithExec applies an execution-layout config. Zero-valued fields leave
// prior settings untouched.
func WithExec(c ExecConfig) Option {
	return func(o *analyzerOptions) {
		if c.Workers != 0 {
			o.minerCfg.Workers = c.Workers
		}
		if c.ScanParallelism != 0 {
			o.scanPar = c.ScanParallelism
		}
	}
}

// WithResilience applies a resilience config. Zero-valued fields leave
// prior settings untouched.
func WithResilience(c ResilienceConfig) Option {
	return func(o *analyzerOptions) {
		if c.DegradedThreshold != 0 {
			o.minerCfg.DegradedThreshold = c.DegradedThreshold
		}
	}
}

// WithDurability applies a durability config; equivalent to WithCheckpoint
// or ResumeFromCheckpoint depending on Resume.
func WithDurability(c DurabilityConfig) Option {
	return func(o *analyzerOptions) {
		if c.CheckpointDir == "" {
			return
		}
		if c.Resume {
			o.resumeDir = c.CheckpointDir
		} else {
			o.ckDir = c.CheckpointDir
		}
		if c.Every != 0 {
			o.ckEvery = c.Every
		}
	}
}

// Budget bounds one Analyze call. At most one field may be set: cost
// budgets are deterministic and exactly reproducible, time budgets are not,
// so the library refuses to combine them (ErrConflictingBudgets).
type Budget struct {
	// Time bounds mining by wall clock; mining is progressive and returns
	// the best-so-far insights at the deadline. A wall-clock budget
	// re-anchors on resume: a run resumed from a checkpoint gets the full
	// duration again, so only cost-budgeted and unbounded runs resume exactly.
	Time time.Duration
	// Cost bounds mining by deterministic engine cost units.
	Cost float64
}

// Request parameterizes one Session.Analyze call. Zero-valued fields take
// the session's settings (or the library defaults).
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
	// MaxFilters caps the number of subspace filters (default 3).
	MaxFilters int
	// Budget bounds the call by wall clock or by deterministic cost units.
	Budget Budget
	// Tau overrides the commonness threshold τ (default 0.5).
	Tau float64
	// TopKPruning enables S*-bounded early termination with the given k;
	// see WithTopKPruning. Must be > 0 when set.
	TopKPruning int
	// Progress, when set, is invoked for each newly stored MetaInsight in
	// deterministic discovery order.
	Progress func(*MetaInsight)
	// Observer, when set, receives this call's metrics and trace,
	// overriding the session observer for the call.
	Observer *Observer
}

// options lowers the request to the legacy option list, applied after the
// session's options so per-call settings win.
func (r Request) options() []Option {
	var opts []Option
	if r.Measures != nil {
		opts = append(opts, WithMeasures(r.Measures...))
	}
	if r.ImpactMeasure != (Measure{}) {
		opts = append(opts, WithImpactMeasure(r.ImpactMeasure))
	}
	if r.MaxFilters > 0 {
		opts = append(opts, WithMaxSubspaceFilters(r.MaxFilters))
	}
	if r.Budget.Time > 0 {
		opts = append(opts, WithTimeBudget(r.Budget.Time))
	}
	if r.Budget.Cost > 0 {
		opts = append(opts, WithCostBudget(r.Budget.Cost))
	}
	if r.Tau != 0 {
		opts = append(opts, WithTau(r.Tau))
	}
	if r.TopKPruning != 0 {
		opts = append(opts, WithTopKPruning(r.TopKPruning))
	}
	if r.Progress != nil {
		opts = append(opts, WithProgress(r.Progress))
	}
	if r.Observer != nil {
		opts = append(opts, WithObserver(r.Observer))
	}
	return opts
}

// Construction-time validation errors. Conflicting or malformed options are
// rejected by NewSession / NewAnalyzer with one of these (test with
// errors.Is) instead of surfacing as surprising behavior mid-run.
var (
	// ErrConflictingCheckpoints: ResumeFromCheckpoint and WithCheckpoint
	// (or DurabilityConfig equivalents) name different directories. Naming
	// the same directory is fine — it resumes and keeps checkpointing there.
	ErrConflictingCheckpoints = errors.New(
		"metainsight: ResumeFromCheckpoint and WithCheckpoint name different directories; use one directory")
	// ErrInvalidTopKPruning: WithTopKPruning (or Request.TopKPruning)
	// requires k > 0; omit the option to disable early termination.
	ErrInvalidTopKPruning = errors.New(
		"metainsight: WithTopKPruning requires k > 0; omit the option to disable early termination")
	// ErrNegativeOption: a count option (workers, scan parallelism,
	// substrate cache limit) was negative.
	ErrNegativeOption = errors.New("metainsight: option value must be non-negative")
	// ErrSessionClosed: Analyze was called on a closed session.
	ErrSessionClosed = errors.New("metainsight: session is closed")
)

// resolveOptions applies the option list over the defaults and validates
// the combination; every construction path (NewSession, Session.Analyze,
// NewAnalyzer) funnels through it, so conflicts surface identically
// everywhere.
func resolveOptions(opts []Option) (*analyzerOptions, error) {
	o := &analyzerOptions{
		minerCfg: miner.DefaultConfig(),
		weights:  ranker.DefaultWeights(),
	}
	o.minerCfg.UsePriorityQueues = true
	for _, opt := range opts {
		opt(o)
	}
	if o.timeBudget > 0 && o.costBudget > 0 {
		return nil, ErrConflictingBudgets
	}
	if math.IsNaN(o.minerCfg.DegradedThreshold) {
		return nil, errors.New("metainsight: degraded threshold is NaN")
	}
	if o.topKSet && o.minerCfg.TopK <= 0 {
		return nil, ErrInvalidTopKPruning
	}
	if o.minerCfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers %d", ErrNegativeOption, o.minerCfg.Workers)
	}
	if o.scanPar < 0 {
		return nil, fmt.Errorf("%w: scan parallelism %d", ErrNegativeOption, o.scanPar)
	}
	if o.subLimit < 0 {
		return nil, fmt.Errorf("%w: substrate cache limit %d", ErrNegativeOption, o.subLimit)
	}
	switch {
	case o.resumeDir != "" && o.ckDir != "" && o.resumeDir != o.ckDir:
		return nil, ErrConflictingCheckpoints
	case o.resumeDir != "":
		o.checkpoint = &miner.CheckpointSpec{Dir: o.resumeDir, Every: o.ckEvery, Resume: true}
	case o.ckDir != "":
		o.checkpoint = &miner.CheckpointSpec{Dir: o.ckDir, Every: o.ckEvery}
	}
	return o, nil
}

// Session is a long-lived analysis handle over one dataset: NewSession
// loads and validates once, Analyze serves many requests. Sessions are safe
// for concurrent Analyze calls; each call is hermetic (fresh caches and
// meter), sharing only the dataset's read-only index structures and the
// substrate registry.
type Session struct {
	d    *Dataset
	opts []Option

	mu       sync.Mutex
	closed   bool
	subs     map[string]*substrateEntry
	subLimit int
	useSeq   int64
}

// substrateEntry is one cached physical substrate plus the bookkeeping the
// bounded registry evicts by: lastUse orders entries least-recently-used
// first, ctor (the construction sequence number) breaks ties, so eviction is
// a deterministic function of the access history alone.
type substrateEntry struct {
	sub     Substrate
	lastUse int64
	ctor    int64
}

// DefaultSubstrateCacheLimit bounds how many distinct physical substrates a
// session retains. Each distinct substrate-shaping configuration (scan
// parallelism, MIN/MAX column set, session observer) builds one substrate; a
// resident server handling heterogeneous requests would otherwise grow the
// registry forever. Override with WithSubstrateCacheLimit.
const DefaultSubstrateCacheLimit = 16

// WithSubstrateCacheLimit bounds the session's substrate registry to at most
// n cached physical substrates, evicted least-recently-used first (ties by
// construction order). 0 keeps DefaultSubstrateCacheLimit. Eviction never
// changes results — an evicted substrate is rebuilt on next use — it only
// re-pays interning and plan-cache warmup.
func WithSubstrateCacheLimit(n int) Option {
	return func(o *analyzerOptions) { o.subLimit = n }
}

// NewSession creates a session over a dataset. Construction validates the
// option combination eagerly (see the Err* construction errors), so a
// misconfigured session fails here rather than on first Analyze.
func NewSession(d *Dataset, opts ...SessionOption) (*Session, error) {
	if d == nil {
		return nil, errors.New("metainsight: nil dataset")
	}
	o, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	limit := o.subLimit
	if limit == 0 {
		limit = DefaultSubstrateCacheLimit
	}
	return &Session{
		d:        d,
		opts:     append([]Option(nil), opts...),
		subs:     make(map[string]*substrateEntry),
		subLimit: limit,
	}, nil
}

// Dataset returns the dataset the session analyzes.
func (s *Session) Dataset() *Dataset { return s.d }

// Close releases the session's cached physical substrates and marks the
// session closed; subsequent Analyze calls fail with ErrSessionClosed.
// In-flight Analyze calls are unaffected (they hold their substrate already).
// Close is idempotent. A resident server holding a registry of sessions
// should Close a session when evicting it, so the substrate memory is
// reclaimable immediately rather than when the GC notices.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.subs = nil
	return nil
}

// substrateCount reports how many physical substrates the registry currently
// retains (tests pin the LRU bound with it).
func (s *Session) substrateCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Analysis is the outcome of one Session.Analyze call: the ranked top-k
// insights plus the full mining result (every candidate and the run
// statistics).
type Analysis struct {
	// Insights is the ranked, redundancy-aware top-k selection.
	Insights []*Insight
	// Result holds every mined MetaInsight candidate plus run statistics.
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
// queries are never charged: they move neither the meter nor Result.Stats.
func (an *Analysis) Engine() *engine.Engine { return an.a.Engine() }

// Analyze mines and ranks one request. The error mirrors the legacy
// Analyze contract: it may wrap ErrDegraded (best-effort result, substrate
// queries failed) or a checkpoint sentinel, and the returned Analysis is still
// valid best-effort output whenever it is non-nil.
func (s *Session) Analyze(ctx context.Context, req Request) (*Analysis, error) {
	a, err := s.analyzer(req)
	if err != nil {
		return nil, err
	}
	res := a.MineContext(ctx)
	return &Analysis{Insights: a.Rank(res, req.TopK), Result: res, a: a}, res.Err
}

// analyzer builds the per-request execution state: session options plus the
// request's overrides, resolved and validated, over substrates reused from
// the session registry.
func (s *Session) analyzer(req Request) (*Analyzer, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	all := append(append([]Option(nil), s.opts...), req.options()...)
	o, err := resolveOptions(all)
	if err != nil {
		return nil, err
	}
	reg := s
	if req.Observer != nil {
		// A substrate bakes its observer in, so one built for a
		// request-scoped observer can never be hit again: retaining it would
		// only pin its intern table, plan memos and the observer's trace ring.
		reg = nil
	}
	return buildAnalyzer(s.d, o, reg)
}

// substrateFor returns the physical scan substrate for one resolved
// configuration, reusing a previously built one from the session registry
// when every substrate-affecting setting matches. Substrates are safe to
// share: scans are read-only over the dataset, intern tables, plan caches
// and accumulator pools are internally synchronized, and reuse never changes
// results — it only skips re-interning and re-planning. A nil receiver (a
// call with a request-scoped observer) builds without caching.
func (s *Session) substrateFor(d *Dataset, o *analyzerOptions, need map[string]bool) (Substrate, error) {
	build := func() Substrate {
		return engine.NewColumnarSubstrate(d,
			engine.WithMinMaxColumns(need),
			engine.WithScanParallelism(o.scanPar),
			engine.WithScanObserver(o.observer))
	}
	if s == nil {
		return build(), nil
	}
	cols := make([]string, 0, len(need))
	for c := range need {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	// The key covers every input that shapes the substrate, including the
	// observer identity (substrates bake their observer in).
	key := fmt.Sprintf("par=%d mm=%v obs=%p", o.scanPar, cols, o.observer)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.useSeq++
	if e, ok := s.subs[key]; ok {
		e.lastUse = s.useSeq
		return e.sub, nil
	}
	sub := build()
	s.subs[key] = &substrateEntry{sub: sub, lastUse: s.useSeq, ctor: s.useSeq}
	// Bounded registry: evict least-recently-used entries (ties broken by
	// construction order) until the limit holds. Eviction only drops the
	// cached reference; an in-flight Analyze keeps its substrate alive.
	for s.subLimit > 0 && len(s.subs) > s.subLimit {
		var victim string
		var ve *substrateEntry
		for k, e := range s.subs {
			if ve == nil || e.lastUse < ve.lastUse ||
				(e.lastUse == ve.lastUse && e.ctor < ve.ctor) {
				victim, ve = k, e
			}
		}
		delete(s.subs, victim)
	}
	return sub, nil
}

// buildAnalyzer assembles the execution state (engine, miner config,
// ranking weights) from a resolved option set. It is the single
// construction path behind both Session.Analyze and the deprecated
// NewAnalyzer shim, which is what makes the two surfaces bit-identical.
func buildAnalyzer(d *Dataset, o *analyzerOptions, sess *Session) (*Analyzer, error) {
	a := &Analyzer{d: d, o: o, sub: o.substrate, wts: o.weights, obs: o.observer, timeBudget: o.timeBudget}
	if err := a.reset(sess); err != nil {
		return nil, err
	}
	return a, nil
}

// reset gives the analyzer the state of one fresh run: an engine over its
// substrate with an empty query cache and a zero meter, and a miner config
// with an empty pattern cache. The substrate is resolved on the first call
// (from sess's registry when the options name none) and reused after.
func (a *Analyzer) reset(sess *Session) error {
	o := a.o
	qc := cache.NewQueryCache(!o.disableQC)
	meter := &engine.Meter{}
	// The needed-aggregate set: measures that registered evaluators will
	// query beyond the mined measure set. Custom patterns declare theirs via
	// CustomEvaluator.Requires; each correlation pair queries its secondary
	// measure for the primary's scopes. engine.Config.MinMaxColumns derives
	// from this which MIN/MAX accumulators the scan substrate materializes.
	reqCfg := pattern.Config{Custom: o.customPatterns}
	for _, pair := range o.correlations {
		reqCfg.Custom = append(reqCfg.Custom, pattern.CustomEvaluator{
			Requires: []Measure{pair[0], pair[1]},
		})
	}
	ecfg := engine.Config{
		Measures:        o.measures,
		ImpactMeasure:   o.impact,
		ExtraMeasures:   reqCfg.RequiredMeasures(),
		ScanParallelism: o.scanPar,
		QueryCache:      qc,
		Meter:           meter,
		Observer:        o.observer,
		Substrate:       a.sub,
	}
	if ecfg.Substrate == nil {
		// The session builds the default substrate itself, to share it across
		// requests, from the same needed-aggregate set engine.New would use.
		var err error
		ecfg.Substrate, err = sess.substrateFor(a.d, o, ecfg.MinMaxColumns(a.d))
		if err != nil {
			return err
		}
		a.sub = ecfg.Substrate
	}
	eng, err := engine.New(a.d, ecfg)
	if err != nil {
		return err
	}
	cfg := o.minerCfg
	if len(o.customPatterns) > 0 || len(o.correlations) > 0 {
		if cfg.Pattern.Alpha == 0 {
			cfg.Pattern = pattern.DefaultConfig()
		}
		cfg.Pattern.Custom = append(cfg.Pattern.Custom, o.customPatterns...)
		for _, pair := range o.correlations {
			cfg.Pattern.Custom = append(cfg.Pattern.Custom, correlationEvaluator(eng, pair[0], pair[1]))
		}
	}
	// The pattern cache is created here, not inside the miner, so Snapshot
	// can report its stats.
	cfg.PatternCache = cache.NewPatternCache[*pattern.ScopeEvaluation](!o.disablePC)
	cfg.Observer = o.observer
	cfg.Checkpoint = o.checkpoint
	if o.costBudget > 0 {
		cfg.Budget = engine.CostBudget{Meter: meter, Limit: o.costBudget}
	}
	a.eng, a.meter, a.cfg = eng, meter, cfg
	return nil
}
