package metainsight_test

// Tests of the Session/Request API redesign: session reuse is hermetic
// (every Analyze call bit-identical to a fresh Analyzer run), the deprecated
// shims are trace-identical to the new surface, mining is bit-identical at
// any scan parallelism and worker count, and conflicting options fail at
// construction with typed errors.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"metainsight"
)

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
// Analyze calls on one session each produce exactly what a fresh Analyzer
// over the same options produces — reuse shares indexes and substrates, not
// caches or meters.
func TestSessionReuseBitIdentical(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	a, err := metainsight.NewAnalyzer(tab, metainsight.WithMeasures(metainsight.Sum("Sales")))
	if err != nil {
		t.Fatal(err)
	}
	res := a.Mine()
	fresh := factsOf(res, a.Rank(res, 5))
	if len(fresh.keys) == 0 {
		t.Fatal("fresh analyzer mined nothing")
	}

	s, err := metainsight.NewSession(tab, metainsight.WithMeasures(metainsight.Sum("Sales")))
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		an, err := s.Analyze(context.Background(), metainsight.Request{TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		requireSameFacts(t, fmt.Sprintf("session call %d", call), fresh, factsOf(an.Result, an.Insights))
	}
}

// TestShimEquivalence runs the same configuration through the deprecated
// surface (NewAnalyzer + Mine + Rank) and the Session surface, with a trace
// observer on each, and requires identical stats, results and trace event
// streams (wall-clock timestamps zeroed — everything else must match).
func TestShimEquivalence(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}

	obOld := metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 14})
	a, err := metainsight.NewAnalyzer(tab,
		metainsight.WithMeasures(metainsight.Sum("Sales")),
		metainsight.WithWorkers(1),
		metainsight.WithObserver(obOld))
	if err != nil {
		t.Fatal(err)
	}
	res := a.Mine()
	oldFacts := factsOf(res, a.Rank(res, 5))

	obNew := metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 14})
	s, err := metainsight.NewSession(tab,
		metainsight.WithMeasures(metainsight.Sum("Sales")),
		metainsight.WithExec(metainsight.ExecConfig{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	an, err := s.Analyze(context.Background(), metainsight.Request{TopK: 5, Observer: obNew})
	if err != nil {
		t.Fatal(err)
	}
	requireSameFacts(t, "session vs shim", oldFacts, factsOf(an.Result, an.Insights))

	oldEvents := obOld.Trace().Events()
	newEvents := obNew.Trace().Events()
	if len(oldEvents) != len(newEvents) {
		t.Fatalf("trace lengths differ: old %d, new %d", len(oldEvents), len(newEvents))
	}
	if len(oldEvents) == 0 {
		t.Fatal("no trace events recorded")
	}
	for i := range oldEvents {
		oe, ne := oldEvents[i], newEvents[i]
		oe.WallNanos, ne.WallNanos = 0, 0
		if oe != ne {
			t.Fatalf("trace event %d differs:\n old %+v\n new %+v", i, oe, ne)
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
		s, err := metainsight.NewSession(tab,
			metainsight.WithMeasures(metainsight.Sum("Revenue"), metainsight.Sum("Margin")),
			metainsight.WithExec(metainsight.ExecConfig{Workers: workers, ScanParallelism: par}))
		if err != nil {
			t.Fatal(err)
		}
		an, err := s.Analyze(context.Background(), metainsight.Request{TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
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
// exactly n — through both ways of saying it, and that a whole Analysis
// encodes to the same bytes under all of them. Before the default became the
// core count, 1 was dropped as "unset", which would have left no way to ask
// for the sequential path.
func TestScanParallelismSpellings(t *testing.T) {
	tab := fracTable(t, 60000)
	analysisJSON := func(opts ...metainsight.Option) string {
		t.Helper()
		opts = append(opts, metainsight.WithMeasures(metainsight.Sum("Revenue"), metainsight.Sum("Margin")))
		s, err := metainsight.NewSession(tab, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		an, err := s.Analyze(context.Background(), metainsight.Request{TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(an)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := analysisJSON(metainsight.WithExec(metainsight.ExecConfig{Workers: 2, ScanParallelism: 1}))
	for _, par := range []int{0, 1, 3} {
		if got := analysisJSON(metainsight.WithExec(metainsight.ExecConfig{Workers: 2, ScanParallelism: par})); got != want {
			t.Errorf("ExecConfig{ScanParallelism: %d}: Analysis JSON differs from the sequential run's", par)
		}
		if got := analysisJSON(metainsight.WithWorkers(2), metainsight.WithScanParallelism(par)); got != want {
			t.Errorf("WithScanParallelism(%d): Analysis JSON differs from the sequential run's", par)
		}
	}
}

// TestConstructionValidation checks that conflicting or malformed option
// combinations are rejected at construction with the typed errors, on both
// the Session and the deprecated surfaces.
func TestConstructionValidation(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []metainsight.Option
		want error
	}{
		{"budgets", []metainsight.Option{
			metainsight.WithTimeBudget(time.Second), metainsight.WithCostBudget(10),
		}, metainsight.ErrConflictingBudgets},
		{"topk zero", []metainsight.Option{
			metainsight.WithTopKPruning(0),
		}, metainsight.ErrInvalidTopKPruning},
		{"topk negative", []metainsight.Option{
			metainsight.WithTopKPruning(-3),
		}, metainsight.ErrInvalidTopKPruning},
		{"negative workers", []metainsight.Option{
			metainsight.WithWorkers(-1),
		}, metainsight.ErrNegativeOption},
		{"checkpoint dirs", []metainsight.Option{
			metainsight.WithCheckpoint("/tmp/ck-a", 0),
			metainsight.ResumeFromCheckpoint("/tmp/ck-b"),
		}, metainsight.ErrConflictingCheckpoints},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := metainsight.NewSession(tab, tc.opts...); !errors.Is(err, tc.want) {
				t.Errorf("NewSession: err = %v, want %v", err, tc.want)
			}
			if _, err := metainsight.NewAnalyzer(tab, tc.opts...); !errors.Is(err, tc.want) {
				t.Errorf("NewAnalyzer: err = %v, want %v", err, tc.want)
			}
		})
	}

	// A NaN threshold would make "rate > threshold" false forever: degraded
	// runs would pass as complete.
	for name, opt := range map[string]metainsight.Option{
		"WithResilience":        metainsight.WithResilience(metainsight.ResilienceConfig{DegradedThreshold: math.NaN()}),
		"WithDegradedThreshold": metainsight.WithDegradedThreshold(math.NaN()),
	} {
		if _, err := metainsight.NewSession(tab, opt); err == nil {
			t.Errorf("%s: NaN degraded threshold accepted", name)
		}
	}

	// Resuming into the directory WithCheckpoint names is not a conflict.
	dir := t.TempDir()
	if _, err := metainsight.NewSession(tab,
		metainsight.WithCheckpoint(dir, 16),
		metainsight.ResumeFromCheckpoint(dir)); err != nil {
		t.Errorf("same-directory checkpoint+resume rejected: %v", err)
	}

	// Per-request conflicts surface from Analyze with the same typed error.
	s, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Analyze(context.Background(), metainsight.Request{
		TopK:   5,
		Budget: metainsight.Budget{Time: time.Second, Cost: 10},
	})
	if !errors.Is(err, metainsight.ErrConflictingBudgets) {
		t.Errorf("Analyze: err = %v, want ErrConflictingBudgets", err)
	}
}
