package metainsight_test

// Tests of the Session/Request API: session reuse is hermetic (every Analyze
// call bit-identical to a fresh run), the deprecated shims the benchmark
// harness calls are trace-identical to Session.Analyze, mining is
// bit-identical at any scan parallelism and worker count, and conflicting or
// malformed settings fail with typed errors.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
	"weak"

	"metainsight"
	"metainsight/internal/cache"
	"metainsight/internal/pattern"
	"metainsight/internal/workload"
)

// fracMeasures is the measure set mined over fracTable.
var fracMeasures = []metainsight.Measure{metainsight.Sum("Revenue"), metainsight.Sum("Margin")}

// fracTable builds a fractional-valued table: bit-identity failures in the
// float merge order show up here, where integer-valued data would hide them.
func fracTable(t *testing.T, rows int) *metainsight.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	header := []string{"Region", "Channel", "Month", "Revenue", "Margin"}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun"}
	records := make([][]string, rows)
	for i := range records {
		records[i] = []string{
			fmt.Sprintf("r%d", r.Intn(7)),
			fmt.Sprintf("c%d", r.Intn(5)),
			months[r.Intn(len(months))],
			strconv.FormatFloat(r.NormFloat64()*1e3, 'f', -1, 64),
			strconv.FormatFloat(r.NormFloat64(), 'f', -1, 64),
		}
	}
	tab, err := metainsight.FromRecords("frac", header, records)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// runFacts is one run's comparable outcome: result keys, ranked narrative
// and statistics (query-cache bytes zeroed; sizes are reporting-only
// best-effort when the cache is unbounded).
type runFacts struct {
	keys  map[string]bool
	desc  []string
	stats metainsight.MiningStats
}

func factsOf(res *metainsight.MiningResult, ins []*metainsight.Insight) runFacts {
	st := res.Stats
	st.QueryCacheStats.Bytes = 0
	desc := make([]string, len(ins))
	for i, in := range ins {
		desc[i] = in.String()
	}
	keys := make(map[string]bool, len(res.All()))
	for _, mi := range res.All() {
		keys[mi.Key()] = true
	}
	return runFacts{keys: keys, desc: desc, stats: st}
}

func requireSameFacts(t *testing.T, label string, want, got runFacts) {
	t.Helper()
	if got.stats != want.stats {
		t.Fatalf("%s: stats differ:\n want %+v\n got  %+v", label, want.stats, got.stats)
	}
	if len(got.keys) != len(want.keys) {
		t.Fatalf("%s: %d results, want %d", label, len(got.keys), len(want.keys))
	}
	for k := range want.keys {
		if !got.keys[k] {
			t.Fatalf("%s: missing result %q", label, k)
		}
	}
	if len(got.desc) != len(want.desc) {
		t.Fatalf("%s: %d ranked insights, want %d", label, len(got.desc), len(want.desc))
	}
	for i := range want.desc {
		if got.desc[i] != want.desc[i] {
			t.Fatalf("%s: ranked insight %d differs:\n want %s\n got  %s", label, i, want.desc[i], got.desc[i])
		}
	}
}

// TestSessionReuseBitIdentical is the Session contract: two sequential
// Analyze calls on one session each produce exactly what a fresh session's
// first call produces — reuse shares indexes and the intern table, not
// caches or ledgers.
func TestSessionReuseBitIdentical(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	req := metainsight.Request{TopK: 5, Measures: salesOnly}
	an := analyzeOnce(t, tab, req)
	fresh := factsOf(an.Result, an.Insights)
	if len(fresh.keys) == 0 {
		t.Fatal("fresh session mined nothing")
	}

	s, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		an, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		requireSameFacts(t, fmt.Sprintf("session call %d", call), fresh, factsOf(an.Result, an.Insights))
	}
}

// creditCardWithMin is Credit Card's default measure set plus a MIN measure,
// whose units need a MIN column the default set's do not.
var creditCardWithMin = []metainsight.Measure{
	metainsight.Sum("Spend"), metainsight.Sum("Transactions"), metainsight.Count("*"), metainsight.Min("Spend"),
}

// TestTracedRequestOnWarmSessionBuildsNoPlans: scan plans live on the
// session's interned handles, not on a substrate built for one observer, so
// a request tracing into an observer of its own on a warm session reuses
// every plan — it counts no plan bytes — and mines what the same request
// mines untraced on a fresh session. The traced request adds a MIN measure:
// its units then need MIN columns the warm request's memo lacks, so it scans
// them afresh, over the plans the warm request built.
func TestTracedRequestOnWarmSessionBuildsNoPlans(t *testing.T) {
	tab := workload.CreditCard()
	sess, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 5}); err != nil {
		t.Fatal(err)
	}
	req := metainsight.Request{TopK: 5, Measures: creditCardWithMin}
	untraced := analyzeOnce(t, tab, req)
	ob := metainsight.NewObserver(metainsight.ObserverOptions{})
	req.Observer = ob
	traced, err := sess.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	snap := ob.Snapshot()
	if snap.Counters["engine.physical.scans"] == 0 {
		t.Fatal("the traced request scanned nothing: the test is vacuous")
	}
	if n := snap.Counters["engine.physical.plan_bytes"]; n != 0 {
		t.Errorf("a traced request on a warm session built %d bytes of plans, want 0", n)
	}
	requireSameFacts(t, "traced", factsOf(untraced.Result, untraced.Insights), factsOf(traced.Result, traced.Insights))
}

// TestInternTableGrowthLaw pins the growth law of a session's intern table
// (DESIGN.md §14): one handle per distinct subspace any request interned, so
// repeating a request on a warm session adds none, and no more than the
// subspaces of at most MaxFilters filters (3 by default) the table holds.
func TestInternTableGrowthLaw(t *testing.T) {
	tab := workload.CreditCard()
	sess, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	interned := func() float64 {
		t.Helper()
		req := metainsight.Request{TopK: 5, Observer: metainsight.NewObserver(metainsight.ObserverOptions{})}
		an, err := sess.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return an.Snapshot().Gauges["engine.interned_handles"]
	}
	// reach[k] counts the subspaces with exactly k filters.
	reach := [4]float64{1}
	for _, d := range tab.Dimensions() {
		for k := 3; k >= 1; k-- {
			reach[k] += reach[k-1] * float64(d.Cardinality())
		}
	}
	bound := reach[0] + reach[1] + reach[2] + reach[3]
	first := interned()
	t.Logf("one request interned %v handles of at most %v", first, bound)
	if first <= 1 || first > bound {
		t.Fatalf("one request interned %v handles, want more than the root and at most %v", first, bound)
	}
	for i := 0; i < 3; i++ {
		if got := interned(); got != first {
			t.Fatalf("repeat %d: the intern table holds %v handles, the first request left %v", i+1, got, first)
		}
	}
}

// TestUnitMemoGrowthLaw pins the growth law of a session's unit memo and
// the pattern memo beside it (DESIGN.md §6 and §14): at most one unit per
// (interned handle, breakdown, MIN/MAX set) and at most one evaluation per
// (unit, mined measure), released by Close. A repeated request scans and
// evaluates nothing, waits on no other caller and adds no entry; a request
// with a new MIN/MAX set scans and evaluates into memos of its own but plans
// nothing; and once the session is closed, the memos are garbage.
func TestUnitMemoGrowthLaw(t *testing.T) {
	tab := workload.CreditCard()
	sess, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	// memos holds weak pointers to one request's query cache and pattern
	// memo, so nothing a request leaves behind holds either.
	type memos struct {
		qc       weak.Pointer[cache.QueryCache]
		patterns weak.Pointer[cache.PatternCache[*pattern.ScopeEvaluation]]
	}
	observe := func(req metainsight.Request) (metainsight.MetricsSnapshot, memos) {
		t.Helper()
		req.Observer = metainsight.NewObserver(metainsight.ObserverOptions{})
		an, err := sess.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return an.Snapshot(), memos{weak.Make(an.Engine().QueryCache()), weak.Make(an.Engine().PatternCache())}
	}
	def := metainsight.Request{TopK: 5}
	first, memo := observe(def)
	entries, handles := first.Gauges["cache.query.entries"], first.Gauges["engine.interned_handles"]
	evals, scopes := first.Counters["pattern.physical.evaluations"], first.Gauges["cache.pattern.entries"]
	t.Logf("one request scanned %d units into a memo of %v over %v handles, and evaluated %d scopes into a memo of %v",
		first.Counters["engine.physical.scans"], entries, handles, evals, scopes)
	if first.Counters["engine.physical.scans"] == 0 || entries == 0 || evals == 0 {
		t.Fatal("the first request scanned or evaluated nothing: the test is vacuous")
	}
	if bound := handles * float64(len(tab.Dimensions())); entries > bound {
		t.Fatalf("the memo holds %v units, more than one per (handle, breakdown): %v", entries, bound)
	}
	if float64(evals) != scopes {
		t.Errorf("the first request evaluated %d scopes into a pattern memo of %v", evals, scopes)
	}
	// Credit Card's default measure set mines three measures.
	if bound := 3 * entries; scopes > bound {
		t.Errorf("the pattern memo holds %v evaluations, more than one per (unit, measure): %v", scopes, bound)
	}
	for i := 0; i < 2; i++ {
		snap, again := observe(def)
		if n := snap.Counters["engine.physical.scans"]; n != 0 {
			t.Errorf("repeat %d scanned %d units, want 0", i+1, n)
		}
		if n := snap.Counters["pattern.physical.evaluations"]; n != 0 {
			t.Errorf("repeat %d evaluated %d scopes, want 0", i+1, n)
		}
		if n := snap.Gauges["cache.flight.followers"]; n != 0 {
			t.Errorf("repeat %d waited %v times on another caller, want 0", i+1, n)
		}
		if got := snap.Gauges["cache.query.entries"]; got != entries {
			t.Errorf("repeat %d: the memo holds %v units, the first request left %v", i+1, got, entries)
		}
		if got := snap.Gauges["cache.pattern.entries"]; got != scopes {
			t.Errorf("repeat %d: the pattern memo holds %v evaluations, the first request left %v", i+1, got, scopes)
		}
		if again.qc.Value() != memo.qc.Value() || again.patterns.Value() != memo.patterns.Value() {
			t.Errorf("repeat %d used another query cache or pattern memo", i+1)
		}
	}

	withMin := def
	withMin.Measures = creditCardWithMin
	snap, minMemo := observe(withMin)
	if snap.Counters["engine.physical.scans"] == 0 {
		t.Error("a request with a new MIN/MAX set scanned nothing")
	}
	if n := snap.Counters["pattern.physical.evaluations"]; n == 0 || float64(n) != snap.Gauges["cache.pattern.entries"] {
		t.Errorf("a request with a new MIN/MAX set evaluated %d scopes into a pattern memo of %v, want a fresh memo of its own",
			n, snap.Gauges["cache.pattern.entries"])
	}
	if n := snap.Counters["engine.physical.plan_bytes"]; n != 0 {
		t.Errorf("a request with a new MIN/MAX set built %d bytes of plans, want 0", n)
	}
	if minMemo.qc.Value() == memo.qc.Value() || minMemo.patterns.Value() == memo.patterns.Value() {
		t.Error("a request with a new MIN/MAX set shared the default memos")
	}
	if snap, _ := observe(def); snap.Counters["engine.physical.scans"] != 0 || snap.Gauges["cache.query.entries"] != entries ||
		snap.Counters["pattern.physical.evaluations"] != 0 || snap.Gauges["cache.pattern.entries"] != scopes {
		t.Errorf("after a MIN request the default request scanned %d units into %v entries and evaluated %d scopes into %v, want 0 into %v and 0 into %v",
			snap.Counters["engine.physical.scans"], snap.Gauges["cache.query.entries"],
			snap.Counters["pattern.physical.evaluations"], snap.Gauges["cache.pattern.entries"], entries, scopes)
	}

	runtime.GC()
	if memo.qc.Value() == nil || minMemo.qc.Value() == nil || memo.patterns.Value() == nil || minMemo.patterns.Value() == nil {
		t.Fatal("an open session dropped its memos")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if memo.qc.Value() != nil || minMemo.qc.Value() != nil || memo.patterns.Value() != nil || minMemo.patterns.Value() != nil {
		t.Error("a closed session's memos survived a GC")
	}
}

// TestMemoSlotsHoldTheEntries: the unit memo and the pattern memo report
// the slots their ordinal-indexed chunks hold beside their entries, so the
// density the layout relies on can be read from a snapshot: every entry has
// a slot, and a repeated request, which interns nothing, makes no chunk.
func TestMemoSlotsHoldTheEntries(t *testing.T) {
	sess, err := metainsight.NewSession(workload.CreditCard())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	gauges := func() map[string]float64 {
		t.Helper()
		an, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 5, Observer: metainsight.NewObserver(metainsight.ObserverOptions{})})
		if err != nil {
			t.Fatal(err)
		}
		return an.Snapshot().Gauges
	}
	first := gauges()
	for _, memo := range []string{"cache.query", "cache.pattern"} {
		entries, slots := first[memo+".entries"], first[memo+".slots"]
		t.Logf("%s: %v entries in %v slots (%.0f %%)", memo, entries, slots, 100*entries/slots)
		if entries == 0 || entries > slots {
			t.Errorf("%s: %v entries in %v slots, want at least one entry and no more entries than slots", memo, entries, slots)
		}
	}
	again := gauges()
	for _, g := range []string{"cache.query.slots", "cache.pattern.slots"} {
		if again[g] != first[g] {
			t.Errorf("a repeated request moved %s from %v to %v", g, first[g], again[g])
		}
	}
}

// TestWarmSessionEqualsFresh: a session's unit and pattern memos decide no
// result. After requests of other shapes — another TopK, MaxFilters 2 then
// 3, a cost budget, a SUM impact and a MIN measure — a
// request's facts, statistics and trace equal a fresh session's, at Workers 1
// and 8, on a plain session and on one that registers a custom pattern type
// and a correlation pattern.
func TestWarmSessionEqualsFresh(t *testing.T) {
	tab := workload.CreditCard()
	earlier := []metainsight.Request{
		{TopK: 3},
		{TopK: 5, MaxFilters: 2},
		{TopK: 5, MaxFilters: 3},
		{TopK: 5, Budget: metainsight.Budget{Cost: 150}},
		{TopK: 5, ImpactMeasure: metainsight.Sum("Spend")},
		{TopK: 5, Measures: []metainsight.Measure{metainsight.Min("Spend"), metainsight.Sum("Transactions")}},
	}
	targets := []metainsight.Request{{TopK: 10}, {TopK: 10, Budget: metainsight.Budget{Cost: 100}}}
	type run struct {
		facts  runFacts
		trace  []metainsight.TraceEvent
		custom int // MetaInsights of a registered pattern type
	}
	analyze := func(s *metainsight.Session, req metainsight.Request) run {
		t.Helper()
		req.Observer = metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 14})
		an, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		r := run{facts: factsOf(an.Result, an.Insights), trace: traceEvents(t, req.Observer)}
		for _, mi := range an.Result.All() {
			if mi.HDP.Type >= metainsight.CustomPatternType(0) {
				r.custom++
			}
		}
		return r
	}
	firstAboveLast := metainsight.CustomPattern{
		Name: "First Above Last",
		Evaluate: func(keys []string, values []float64) metainsight.PatternEvaluation {
			if values[0] <= 2*values[len(values)-1] {
				return metainsight.PatternEvaluation{}
			}
			return metainsight.PatternEvaluation{Valid: true, Highlight: metainsight.Highlight{Positions: []string{keys[0]}}, Strength: 0.5}
		},
	}
	patterns := []metainsight.Option{
		metainsight.WithCustomPatternTypes(firstAboveLast),
		metainsight.WithCorrelationPatterns([2]metainsight.Measure{metainsight.Sum("Spend"), metainsight.Sum("Transactions")}),
	}
	for _, arm := range []struct {
		name string
		opts []metainsight.Option
	}{{"plain", nil}, {"custom patterns", patterns}} {
		for _, workers := range []int{1, 8} {
			opts := append(slices.Clone(arm.opts), metainsight.WithWorkers(workers))
			warm, err := metainsight.NewSession(tab, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range earlier {
				if _, err := warm.Analyze(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			for _, req := range targets {
				fresh, err := metainsight.NewSession(tab, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want := analyze(fresh, req)
				fresh.Close()
				got := analyze(warm, req)
				label := fmt.Sprintf("%s, workers %d, budget %v", arm.name, workers, req.Budget.Cost)
				if arm.opts != nil && want.custom == 0 {
					t.Fatalf("%s: vacuous: no registered pattern type was mined", label)
				}
				requireSameFacts(t, label, want.facts, got.facts)
				if !slices.Equal(got.trace, want.trace) {
					t.Fatalf("%s: the warm session's trace differs from a fresh session's", label)
				}
			}
			warm.Close()
		}
	}
}

// TestSumImpactMiningIsDeterministic: with a SUM impact measure every
// Figure-6 table mines the same keys with bit-identical scores and impacts at
// Workers 1 and 8, run after run. A subspace's impact is its rows' impact
// values added in row order, never a sum over whichever cached unit a worker
// found first: a unit's float sums depend on the scan that produced it.
// MaxFilters 2 keeps the test within the race detector's budget; two-filter
// subspaces are where the sums diverged.
func TestSumImpactMiningIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		tab    *metainsight.Dataset
		impact string
	}{
		{workload.SalesForecast(), "Sales"},
		{workload.TabletSales(), "Revenue"},
		{workload.CreditCard(), "Spend"},
		{workload.HotelBooking(), "Bookings"},
	} {
		req := metainsight.Request{TopK: 10, MaxFilters: 2, ImpactMeasure: metainsight.Sum(tc.impact)}
		var want []string
		for _, workers := range []int{1, 8} {
			for rep := 0; rep < 3; rep++ {
				an := analyzeOnce(t, tc.tab, req, metainsight.WithWorkers(workers))
				got := make([]string, len(an.Result.All()))
				for i, mi := range an.Result.All() {
					got[i] = fmt.Sprintf("%s score=%x impact=%x",
						mi.Key(), math.Float64bits(mi.Score), math.Float64bits(mi.ImpactHDS))
				}
				slices.Sort(got)
				if want == nil {
					if want = got; len(want) == 0 {
						t.Fatalf("%s: mined nothing", tc.tab.Name())
					}
					continue
				}
				if i := firstDiff(want, got); i >= 0 {
					t.Fatalf("%s, workers %d, run %d differs from the first run at result %d of %d/%d:\n want %s\n got  %s",
						tc.tab.Name(), workers, rep+1, i, len(want), len(got), at(want, i), at(got, i))
				}
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(xs []string, i int) string {
	if i < len(xs) {
		return xs[i]
	}
	return "(none)"
}

// traceEvents returns ob's trace with wall times zeroed, failing if the ring
// dropped any event.
func traceEvents(t *testing.T, ob *metainsight.Observer) []metainsight.TraceEvent {
	t.Helper()
	if n := ob.Trace().Dropped(); n > 0 {
		t.Fatalf("trace ring dropped %d events", n)
	}
	evs := ob.Trace().Events()
	for i := range evs {
		evs[i].WallNanos = 0
	}
	return evs
}

// TestShimEquivalence pins that the benchmark's traced pass measures what
// Session.Analyze runs. The frozen harness (benchmark/layers.go) calls
// NewAnalyzer(ds, WithObserver, WithProgress[, WithCostBudget(b)]), then
// MineContext and Rank; Session.Analyze gets the same settings in its
// Request. Facts, the progress-callback sequence and the trace events (wall
// time zeroed) must be identical, unbudgeted and budgeted.
func TestShimEquivalence(t *testing.T) {
	tab := workload.CreditCard()
	type run struct {
		facts    runFacts
		progress []string
		trace    []metainsight.TraceEvent
	}
	traced := func(r *run) (*metainsight.Observer, func(*metainsight.MetaInsight)) {
		ob := metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 14})
		return ob, func(mi *metainsight.MetaInsight) { r.progress = append(r.progress, mi.Key()) }
	}
	var unbudgeted int
	for _, budget := range []float64{0, 150} {
		label := fmt.Sprintf("budget %v", budget)

		var shim run
		ob, progress := traced(&shim)
		opts := []metainsight.Option{metainsight.WithObserver(ob), metainsight.WithProgress(progress)}
		if budget > 0 {
			opts = append(opts, metainsight.WithCostBudget(budget))
		}
		a, err := metainsight.NewAnalyzer(tab, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res := a.MineContext(context.Background())
		shim.facts = factsOf(res, a.Rank(res, 10))
		shim.trace = traceEvents(t, ob)

		var sess run
		ob, progress = traced(&sess)
		s, err := metainsight.NewSession(tab)
		if err != nil {
			t.Fatal(err)
		}
		an, err := s.Analyze(context.Background(), metainsight.Request{
			TopK: 10, Observer: ob, Progress: progress, Budget: metainsight.Budget{Cost: budget},
		})
		if err != nil {
			t.Fatal(err)
		}
		sess.facts = factsOf(an.Result, an.Insights)
		sess.trace = traceEvents(t, ob)

		requireSameFacts(t, label+": session vs shim", shim.facts, sess.facts)
		if len(shim.progress) == 0 || len(shim.trace) == 0 {
			t.Fatalf("%s: vacuous: %d discoveries, %d trace events", label, len(shim.progress), len(shim.trace))
		}
		if budget == 0 {
			unbudgeted = len(shim.progress)
		} else if len(shim.progress) >= unbudgeted {
			t.Fatalf("%s: the budget cut nothing (%d discoveries)", label, len(shim.progress))
		}
		if !slices.Equal(shim.progress, sess.progress) {
			t.Fatalf("%s: progress sequences differ: shim %d calls, session %d", label, len(shim.progress), len(sess.progress))
		}
		if len(shim.trace) != len(sess.trace) {
			t.Fatalf("%s: trace lengths differ: shim %d, session %d", label, len(shim.trace), len(sess.trace))
		}
		for i := range shim.trace {
			if shim.trace[i] != sess.trace[i] {
				t.Fatalf("%s: trace event %d differs:\n shim    %+v\n session %+v", label, i, shim.trace[i], sess.trace[i])
			}
		}
	}
}

// TestSessionScanParallelismGridBitIdentical is the mining-level fractional
// differential of the morsel-parallel scan: on fractional data, every
// (scan-parallelism, workers) cell produces bit-identical results, statistics
// and costs — morsels have fixed boundaries and merge in morsel-index order,
// so the floating-point addition tree never depends on either setting. The
// table spans several default-size morsels, unfiltered and behind any single
// filter, so the cells really split their scans.
func TestSessionScanParallelismGridBitIdentical(t *testing.T) {
	tab := fracTable(t, 60000)
	run := func(par, workers int) runFacts {
		an := analyzeOnce(t, tab, metainsight.Request{TopK: 5, Measures: fracMeasures},
			metainsight.WithWorkers(workers), metainsight.WithScanParallelism(par))
		return factsOf(an.Result, an.Insights)
	}
	base := run(1, 1)
	if len(base.keys) == 0 {
		t.Fatal("baseline mined nothing")
	}
	for _, par := range []int{0, 1, 2, 4, 8} {
		for _, workers := range []int{1, 8} {
			requireSameFacts(t, fmt.Sprintf("par=%d workers=%d", par, workers), base, run(par, workers))
		}
	}
}

// TestScanParallelismSpellings pins what the three values of the setting
// mean — 0 the default (one goroutine per core), 1 the sequential path, n > 1
// exactly n — and that a whole Analysis encodes to the same bytes under all
// of them. Before the default became the core count, 1 was dropped as
// "unset", which would have left no way to ask for the sequential path.
func TestScanParallelismSpellings(t *testing.T) {
	tab := fracTable(t, 60000)
	analysisJSON := func(par int) string {
		t.Helper()
		an := analyzeOnce(t, tab, metainsight.Request{TopK: 5, Measures: fracMeasures},
			metainsight.WithWorkers(2), metainsight.WithScanParallelism(par))
		b, err := json.Marshal(an)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := analysisJSON(1)
	for _, par := range []int{0, 1, 3} {
		if got := analysisJSON(par); got != want {
			t.Errorf("scan parallelism %d: Analysis JSON differs from the sequential run's", par)
		}
	}
}

// TestConstructionValidation checks that conflicting or malformed settings
// are rejected with the typed errors: session options at NewSession, request
// fields at Analyze.
func TestConstructionValidation(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []metainsight.Option
		req  metainsight.Request
		want error
	}{
		{"budgets", nil, metainsight.Request{
			Budget: metainsight.Budget{Time: time.Second, Cost: 10},
		}, metainsight.ErrConflictingBudgets},
		{"negative max filters", nil, metainsight.Request{MaxFilters: -1}, metainsight.ErrNegativeOption},
		{"negative cost budget", nil, metainsight.Request{Budget: metainsight.Budget{Cost: -5}}, metainsight.ErrNegativeOption},
		{"NaN cost budget", nil, metainsight.Request{Budget: metainsight.Budget{Cost: math.NaN()}}, metainsight.ErrNegativeOption},
		{"negative time budget", nil, metainsight.Request{Budget: metainsight.Budget{Time: -5 * time.Second}}, metainsight.ErrNegativeOption},
		{"negative WithCostBudget", []metainsight.Option{metainsight.WithCostBudget(-5)}, metainsight.Request{}, metainsight.ErrNegativeOption},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := metainsight.NewSession(tab, tc.opts...)
			if err == nil {
				_, err = s.Analyze(context.Background(), tc.req)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}

}

// TestTauOutsideOpenUnitIntervalRejected: a commonness needs a share of the
// patterns above τ, and the score's S* term panics unless 0 < τ < 1, so
// Analyze rejects any other non-zero τ (NaN included) before mining. Such a
// τ used to be accepted: −0.3 panicked in every MetaInsight unit (a nil error
// and no insights on Credit Card), 1 and 1.5 silently mined nothing.
func TestTauOutsideOpenUnitIntervalRejected(t *testing.T) {
	s, err := metainsight.NewSession(workload.CreditCard())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, tau := range []float64{-0.3, 1, 1.5, math.NaN(), math.Inf(1)} {
		if an, err := s.Analyze(ctx, metainsight.Request{TopK: 10, Tau: tau}); err == nil {
			t.Errorf("τ = %v accepted: %d insights, %d panicked units",
				tau, len(an.Insights), an.Result.Stats.PanickedUnits)
		}
	}
	for _, tau := range []float64{0, 0.3, 0.9} {
		an, err := s.Analyze(ctx, metainsight.Request{TopK: 10, Tau: tau, Budget: metainsight.Budget{Cost: 200}})
		if err != nil {
			t.Fatalf("τ = %v rejected: %v", tau, err)
		}
		if n := an.Result.Stats.PanickedUnits; n != 0 {
			t.Errorf("τ = %v: %d panicked units", tau, n)
		}
	}
}
