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
	"slices"
	"strconv"
	"testing"
	"time"

	"metainsight"
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
	keys := make(map[string]bool, len(res.MetaInsights))
	for _, mi := range res.MetaInsights {
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
// caches or meters.
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

// TestTracedRequestOnWarmSessionBuildsNoPlans: scan plans live on the
// session's interned handles, not on a substrate built for one observer, so
// a request tracing into an observer of its own on a warm session reuses
// every plan — it counts no plan bytes — and mines what an untraced request
// mines.
func TestTracedRequestOnWarmSessionBuildsNoPlans(t *testing.T) {
	sess, err := metainsight.NewSession(workload.CreditCard())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	req := metainsight.Request{TopK: 5}
	warm, err := sess.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
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
	requireSameFacts(t, "traced", factsOf(warm.Result, warm.Insights), factsOf(traced.Result, traced.Insights))
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
	events := func(ob *metainsight.Observer) []metainsight.TraceEvent {
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
		shim.trace = events(ob)

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
		sess.trace = events(ob)

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
			metainsight.WithExec(metainsight.ExecConfig{Workers: workers, ScanParallelism: par}))
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
			metainsight.WithExec(metainsight.ExecConfig{Workers: 2, ScanParallelism: par}))
		b, err := json.Marshal(an)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := analysisJSON(1)
	for _, par := range []int{0, 1, 3} {
		if got := analysisJSON(par); got != want {
			t.Errorf("ExecConfig{ScanParallelism: %d}: Analysis JSON differs from the sequential run's", par)
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
		{"topk negative", nil, metainsight.Request{TopKPruning: -3}, metainsight.ErrInvalidTopKPruning},
		{"negative workers", []metainsight.Option{
			metainsight.WithExec(metainsight.ExecConfig{Workers: -1}),
		}, metainsight.Request{}, metainsight.ErrNegativeOption},
		{"negative scan parallelism", []metainsight.Option{
			metainsight.WithExec(metainsight.ExecConfig{ScanParallelism: -1}),
		}, metainsight.Request{}, metainsight.ErrNegativeOption},
		{"negative max filters", nil, metainsight.Request{MaxFilters: -1}, metainsight.ErrNegativeOption},
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

	// A NaN threshold would make "rate > threshold" false forever: degraded
	// runs would pass as complete.
	if _, err := metainsight.NewSession(tab,
		metainsight.WithResilience(metainsight.ResilienceConfig{DegradedThreshold: math.NaN()})); err == nil {
		t.Error("NaN degraded threshold accepted")
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
