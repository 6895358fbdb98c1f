package metainsight_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"metainsight"
	"metainsight/internal/experiments"
	"metainsight/internal/model"
	"metainsight/internal/workload"
)

// salesOnly is the measure set most house-table tests mine.
var salesOnly = []metainsight.Measure{metainsight.Sum("Sales")}

// analyzeOnce runs one request on a fresh session over tab.
func analyzeOnce(t *testing.T, tab *metainsight.Dataset, req metainsight.Request, opts ...metainsight.Option) *metainsight.Analysis {
	t.Helper()
	s, err := metainsight.NewSession(tab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	an, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// oneWorker is the session option of the tests that compare runs by count.
var oneWorker = metainsight.WithWorkers(1)

// houseRecords builds the paper's running example as raw records.
func houseRecords() ([]string, [][]string) {
	header := []string{"City", "Month", "Sales"}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	valley := []float64{100, 70, 40, 10, 40, 70, 100, 100, 100, 100, 100, 100}
	julyValley := []float64{100, 100, 100, 100, 70, 40, 10, 40, 70, 100, 100, 100}
	var records [][]string
	add := func(city string, series []float64) {
		for m, v := range series {
			records = append(records, []string{city, months[m], strconv.FormatFloat(v, 'f', -1, 64)})
		}
	}
	for _, city := range []string{"LA", "SF", "SJ", "Oakland", "Sacramento"} {
		add(city, valley)
	}
	add("San Diego", julyValley)
	return header, records
}

func TestAnalyzeEndToEnd(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	insights := analyzeOnce(t, tab, metainsight.Request{TopK: 5, Measures: salesOnly}).Insights
	if len(insights) == 0 {
		t.Fatal("no insights")
	}
	found := false
	for _, in := range insights {
		desc := in.Description()
		if strings.Contains(desc, "Apr has the lowest SUM(Sales)") &&
			strings.Contains(desc, "San Diego") {
			found = true
			if !in.HasExceptions() {
				t.Error("San Diego exception lost")
			}
			if in.Score() <= 0 || in.Score() > 1 {
				t.Errorf("score = %v", in.Score())
			}
			if len(in.FlatList()) != len(in.MetaInsight().HDP.Patterns) {
				t.Error("flat list incomplete")
			}
		}
	}
	if !found {
		t.Error("paper's running-example MetaInsight not surfaced")
	}
}

func TestOpenCSVRoundtrip(t *testing.T) {
	header, records := houseRecords()
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, rec := range records {
		b.WriteString(strings.Join(rec, ","))
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "houses.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := metainsight.OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "houses" || tab.Rows() != len(records) {
		t.Fatalf("loaded %q with %d rows", tab.Name(), tab.Rows())
	}
	if tab.Dimension("Month") == nil || len(tab.TemporalDimensions()) != 1 {
		t.Error("Month not inferred temporal")
	}
}

func TestReadCSVWithOverrides(t *testing.T) {
	csv := "Code,V\n1,10\n2,20\n3,30\n"
	tab, err := metainsight.ReadCSV(strings.NewReader(csv), "codes",
		metainsight.WithColumnKind("Code", metainsight.Categorical))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Dimension("Code") == nil {
		t.Error("override ignored")
	}
}

func TestAnalyzerBudgetsAndAblations(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	// Cost budget: deterministic and progressive.
	small := analyzeOnce(t, tab, metainsight.Request{Budget: metainsight.Budget{Cost: 30}}, oneWorker).Result
	full := analyzeOnce(t, tab, metainsight.Request{}, oneWorker).Result
	if len(small.All()) > len(full.All()) {
		t.Error("budgeted run found more than the full run")
	}
	// The paper's ablations (no query cache, no pattern cache, FIFO queues)
	// run through experiments.Setup; they must not change the unbudgeted
	// result set, only the query count.
	golden, _ := experiments.FullFunctionality().Run(tab)
	ablated, _ := experiments.Setup{Workers: 1}.Run(tab)
	for _, res := range []*metainsight.MiningResult{golden, ablated} {
		if len(res.All()) != len(full.All()) {
			t.Errorf("experiments.Setup mined %d, the session %d", len(res.All()), len(full.All()))
		}
	}
	if ablated.Stats.ExecutedQueries <= golden.Stats.ExecutedQueries {
		t.Error("disabling the caches should execute more queries")
	}
}

// TestAnalyzerMineIsHermetic: every Mine call on one Analyzer starts from an
// empty pattern cache, an empty commit-order replay, the run's ledger, so the
// second call returns what the first did — keys, scores and every statistic —
// though it reuses the units the first one scanned, and both agree across
// worker counts, but for the reporting-only QueryCacheStats.Bytes. The second
// call used to start from the first one's caches and meter: a budgeted one
// committed nothing, and its statistics depended on the worker count.
func TestAnalyzerMineIsHermetic(t *testing.T) {
	type run struct {
		keys   []string
		scores []float64
		stats  metainsight.MiningStats
	}
	mine := func(a *metainsight.Analyzer) run {
		t.Helper()
		res := a.MineContext(context.Background())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		r := run{stats: res.Stats}
		for _, mi := range res.All() {
			r.keys = append(r.keys, mi.Key())
			r.scores = append(r.scores, mi.Score)
		}
		return r
	}
	for _, tab := range []*metainsight.Dataset{workload.CreditCard(), workload.SalesForecast()} {
		for _, budget := range []float64{0, 200} {
			var ref *run
			for _, workers := range []int{1, 8} {
				opts := []metainsight.Option{metainsight.WithWorkers(workers)}
				if budget > 0 {
					opts = append(opts, metainsight.WithCostBudget(budget))
				}
				a, err := metainsight.NewAnalyzer(tab, opts...)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s, budget %v, %d workers", tab.Name(), budget, workers)
				first, second := mine(a), mine(a)
				if len(first.keys) == 0 {
					t.Fatalf("%s: vacuous, nothing mined", label)
				}
				if !reflect.DeepEqual(first, second) {
					t.Errorf("%s: the second Mine differs from the first\n first:  %d insights %+v\n second: %d insights %+v",
						label, len(first.keys), first.stats, len(second.keys), second.stats)
				}
				first.stats.QueryCacheStats.Bytes = 0
				if ref == nil {
					ref = &first
				} else if !reflect.DeepEqual(*ref, first) {
					t.Errorf("%s: differs from 1 worker\n w1: %+v\n w%d: %+v", label, ref.stats, workers, first.stats)
				}
			}
		}
	}
}

func TestWithTimeBudgetStops(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	analyzeOnce(t, tab, metainsight.Request{Budget: metainsight.Budget{Time: 50 * time.Millisecond}})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("time budget ignored: ran %v", elapsed)
	}
	// A deadline that has passed by the first commit stops the run there.
	full := analyzeOnce(t, tab, metainsight.Request{}).Result.Stats
	spent := analyzeOnce(t, tab, metainsight.Request{Budget: metainsight.Budget{Time: time.Nanosecond}}).Result.Stats
	if spent.CostUsed >= full.CostUsed {
		t.Errorf("1ns time budget spent %v cost units, an unbudgeted run %v", spent.CostUsed, full.CostUsed)
	}
}

func TestWithTauChangesAcceptance(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	strict := analyzeOnce(t, tab, metainsight.Request{Tau: 0.7}, oneWorker).Result
	loose := analyzeOnce(t, tab, metainsight.Request{Tau: 0.3}, oneWorker).Result
	ns, nl := len(strict.All()), len(loose.All())
	if ns > nl {
		t.Errorf("τ=0.7 found %d, τ=0.3 found %d — higher τ must be a subset", ns, nl)
	}
}

func TestNewAnalyzerRejectsBadConfig(t *testing.T) {
	header, records := houseRecords()
	tab, _ := metainsight.FromRecords("houses", header, records)
	s, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Analyze(ctx, metainsight.Request{ImpactMeasure: metainsight.Avg("Sales")}); err == nil {
		t.Error("non-additive impact measure accepted")
	}
	if _, err := s.Analyze(ctx, metainsight.Request{Measures: []metainsight.Measure{metainsight.Sum("Nope")}}); err == nil {
		t.Error("unknown measure accepted")
	}
}

// TestAnalyzeRejectsNonFiniteImpact: a SUM impact measure with a NaN cell
// fails the request with the engine's error, not with an empty analysis.
func TestAnalyzeRejectsNonFiniteImpact(t *testing.T) {
	b := metainsight.NewDatasetBuilder("impact", []metainsight.Field{
		{Name: "A", Kind: metainsight.Categorical},
		{Name: "B", Kind: metainsight.Categorical},
		{Name: "M", Kind: metainsight.MeasureKind},
	})
	for i := 0; i < 400; i++ {
		v := float64(i%7 + 1)
		if i == 17 {
			v = math.NaN()
		}
		b.AddRow([]string{strconv.Itoa(i % 5), strconv.Itoa(i % 4)}, []float64{v})
	}
	s, err := metainsight.NewSession(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Analyze(context.Background(), metainsight.Request{ImpactMeasure: metainsight.Sum("M")})
	if err == nil {
		t.Fatalf("NaN impact total accepted: %d MetaInsights", len(a.Result.All()))
	}
}

func TestDescribeHelpers(t *testing.T) {
	header, records := houseRecords()
	tab, _ := metainsight.FromRecords("houses", header, records)
	res := analyzeOnce(t, tab, metainsight.Request{Measures: salesOnly}).Result
	if len(res.All()) == 0 {
		t.Fatal("no results")
	}
	mi := res.All()[0]
	if metainsight.Describe(mi) == "" {
		t.Error("empty description")
	}
	if len(metainsight.FlatListOf(mi)) == 0 {
		t.Error("empty flat list")
	}
}

func TestCustomPatternTypeEndToEnd(t *testing.T) {
	// A domain-specific "quarter-end spike" type: the measure at months
	// 3, 6, 9, 12 is at least double the other months' average. Most product
	// lines in this dataset follow it; one does not.
	header := []string{"Line", "Month", "Revenue"}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	var records [][]string
	add := func(line string, quarterEnd bool) {
		for m := range months {
			v := 100.0
			if quarterEnd && (m+1)%3 == 0 {
				v = 400
			}
			if !quarterEnd {
				v = 100 + 10*float64(m%5)
			}
			records = append(records, []string{line, months[m], strconv.FormatFloat(v, 'f', -1, 64)})
		}
	}
	for _, line := range []string{"Enterprise", "SMB", "Consumer", "Education"} {
		add(line, true)
	}
	add("Government", false)

	tab, err := metainsight.FromRecords("revenue", header, records)
	if err != nil {
		t.Fatal(err)
	}
	quarterEnd := metainsight.CustomPattern{
		Name:         "Quarter-End Spike",
		TemporalOnly: true,
		Evaluate: func(keys []string, values []float64) metainsight.PatternEvaluation {
			if len(values) != 12 {
				return metainsight.PatternEvaluation{}
			}
			spike, base := 0.0, 0.0
			for i, v := range values {
				if (i+1)%3 == 0 {
					spike += v / 4
				} else {
					base += v / 8
				}
			}
			if base <= 0 || spike < 2*base {
				return metainsight.PatternEvaluation{}
			}
			return metainsight.PatternEvaluation{
				Valid:     true,
				Highlight: metainsight.Highlight{Label: "quarter-end"},
				Strength:  spike / base / 4,
			}
		},
	}
	an := analyzeOnce(t, tab, metainsight.Request{
		TopK:     20,
		Measures: []metainsight.Measure{metainsight.Sum("Revenue")},
	}, metainsight.WithCustomPatternTypes(quarterEnd), oneWorker)
	var found *metainsight.Insight
	for _, in := range an.Insights {
		if strings.Contains(in.Description(), "Quarter-End Spike") {
			found = in
			break
		}
	}
	if found == nil {
		t.Fatal("custom-type MetaInsight not mined or not named in the description")
	}
	mi := found.MetaInsight()
	if len(mi.CommSet) != 1 || len(mi.CommSet[0].Indices) != 4 {
		t.Errorf("commonness = %+v", mi.CommSet)
	}
	if !mi.HasExceptions() {
		t.Error("Government exception lost")
	}
}

func TestInsightMarshalJSON(t *testing.T) {
	header, records := houseRecords()
	tab, _ := metainsight.FromRecords("houses", header, records)
	insights := analyzeOnce(t, tab, metainsight.Request{TopK: 3, Measures: salesOnly}).Insights
	if len(insights) == 0 {
		t.Fatal("no insights")
	}
	data, err := json.Marshal(insights[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"key", "type", "extension", "score", "description", "commonnesses"} {
		if _, ok := doc[field]; !ok {
			t.Errorf("JSON missing %q: %s", field, data)
		}
	}
	if commons, ok := doc["commonnesses"].([]any); !ok || len(commons) == 0 {
		t.Error("JSON commonnesses empty")
	}
}

func TestWithProgressStreamsDiscoveries(t *testing.T) {
	header, records := houseRecords()
	tab, _ := metainsight.FromRecords("houses", header, records)
	var mu sync.Mutex
	var streamed []string
	result := analyzeOnce(t, tab, metainsight.Request{
		Measures: salesOnly,
		Progress: func(mi *metainsight.MetaInsight) {
			mu.Lock()
			streamed = append(streamed, mi.Key())
			mu.Unlock()
		},
	}).Result
	mu.Lock()
	defer mu.Unlock()
	if len(streamed) != len(result.All()) {
		t.Fatalf("streamed %d of %d discoveries", len(streamed), len(result.All()))
	}
	final := map[string]bool{}
	for _, mi := range result.All() {
		final[mi.Key()] = true
	}
	for _, k := range streamed {
		if !final[k] {
			t.Errorf("streamed key %q not in final results", k)
		}
	}
}

func TestProgressiveRankerDuringMining(t *testing.T) {
	header, records := houseRecords()
	tab, _ := metainsight.FromRecords("houses", header, records)
	prog := metainsight.NewProgressiveRanker(3)
	added := 0
	progress := func(mi *metainsight.MetaInsight) { added++; prog.Add(mi) }
	result := analyzeOnce(t, tab, metainsight.Request{Measures: salesOnly, Progress: progress}, oneWorker).Result
	if added != len(result.All()) {
		t.Fatalf("progressive saw %d of %d discoveries", added, len(result.All()))
	}
	top := prog.TopK()
	if len(top) == 0 {
		t.Fatal("empty progressive suggestion")
	}
	for _, mi := range top {
		if metainsight.Describe(mi) == "" {
			t.Error("empty description from progressive suggestion")
		}
	}
}

func TestBreakdownExtensionAcrossDerivedGranularities(t *testing.T) {
	// Daily sales with a mid-year slump: after deriving the temporal
	// hierarchy, the slump shows up at several granularities and the miner
	// produces a breakdown-extended MetaInsight spanning them (the paper's
	// Exd_b example: "sales over Day, Week and Month").
	header := []string{"Store", "Date", "Sales"}
	var records [][]string
	day := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 364; i++ {
		v := 100.0
		if m := day.Month(); m >= 5 && m <= 7 {
			v = 30 // the slump
		}
		records = append(records, []string{
			[]string{"North", "South"}[i%2],
			day.Format("2006-01-02"),
			strconv.FormatFloat(v, 'f', -1, 64),
		})
		day = day.AddDate(0, 0, 1)
	}
	tab, err := metainsight.FromRecords("daily", header, records,
		metainsight.WithColumnKind("Date", metainsight.Temporal))
	if err != nil {
		t.Fatal(err)
	}
	tab, err = metainsight.DeriveTemporal(tab, "Date")
	if err != nil {
		t.Fatal(err)
	}
	result := analyzeOnce(t, tab, metainsight.Request{Measures: salesOnly}, oneWorker).Result
	found := false
	for _, mi := range result.All() {
		if mi.HDP.HDS.Kind != model.ExtendBreakdown {
			continue
		}
		breakdowns := map[string]bool{}
		for _, dp := range mi.HDP.Patterns {
			breakdowns[dp.Scope.Breakdown] = true
		}
		if len(breakdowns) >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no breakdown-extended MetaInsight across derived granularities")
	}
}

func TestWriteReportEndToEnd(t *testing.T) {
	header, records := houseRecords()
	tab, _ := metainsight.FromRecords("houses", header, records)
	an := analyzeOnce(t, tab, metainsight.Request{TopK: 3, Measures: salesOnly}, oneWorker)
	var buf strings.Builder
	if err := an.WriteReport(&buf, "Houses"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Houses") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "```") || !strings.Contains(out, "▁") {
		t.Error("sparklines missing")
	}
	if !strings.Contains(out, "San Diego") {
		t.Error("exception member missing")
	}
}

func TestCorrelationPatternsEndToEnd(t *testing.T) {
	// Most cities' Profit tracks Sales over the months; one city's margin
	// collapses whenever sales rise (negative correlation) — the planted
	// highlight-change exception for the Correlation(SUM(Sales),SUM(Profit))
	// pattern type.
	header := []string{"City", "Month", "Sales", "Profit"}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	sales := []float64{80, 95, 60, 120, 105, 70, 130, 90, 110, 65, 100, 85}
	var records [][]string
	add := func(city string, sign float64) {
		for m, s := range sales {
			profit := sign * s * 0.2
			records = append(records, []string{
				city, months[m],
				strconv.FormatFloat(s, 'f', -1, 64),
				strconv.FormatFloat(profit, 'f', -1, 64),
			})
		}
	}
	for _, city := range []string{"LA", "SF", "SJ", "Oakland", "Sacramento"} {
		add(city, 1)
	}
	add("Fresno", -1)

	tab, err := metainsight.FromRecords("margin", header, records)
	if err != nil {
		t.Fatal(err)
	}
	req := metainsight.Request{
		TopK:     25,
		Measures: []metainsight.Measure{metainsight.Sum("Sales"), metainsight.Sum("Profit")},
	}
	an := analyzeOnce(t, tab, req, metainsight.WithCorrelationPatterns([2]metainsight.Measure{
		metainsight.Sum("Sales"), metainsight.Sum("Profit"),
	}), oneWorker)
	result := an.Result
	corrType := metainsight.CustomPatternType(0)
	var found *metainsight.MetaInsight
	for _, mi := range result.All() {
		if mi.HDP.HDS.Kind == model.ExtendSubspace && mi.HDP.HDS.ExtDim == "City" &&
			mi.HDP.Type == corrType {
			found = mi
			break
		}
	}
	if found == nil {
		t.Fatal("correlation MetaInsight over City not mined")
	}
	if len(found.CommSet) != 1 || found.CommSet[0].Highlight.Label != "positive" {
		t.Errorf("commonness = %+v", found.CommSet)
	}
	if len(found.CommSet[0].Indices) != 5 {
		t.Errorf("commonness covers %d cities", len(found.CommSet[0].Indices))
	}
	// Fresno is a highlight-change exception: correlation holds, negatively.
	var fresno bool
	for _, e := range found.Exceptions {
		dp := found.HDP.Patterns[e.Index]
		if city, _ := dp.Scope.Subspace.Get("City"); city == "Fresno" {
			fresno = true
			if e.Category != 0 { // core.HighlightChange
				t.Errorf("Fresno categorized as %v", e.Category)
			}
			if dp.Highlight.Label != "negative" {
				t.Errorf("Fresno highlight = %v", dp.Highlight)
			}
		}
	}
	if !fresno {
		t.Error("Fresno exception missing")
	}
	// Through the ranked Insight view the custom type renders by name.
	named := false
	for _, in := range an.Insights {
		if strings.Contains(in.Description(), "Correlation(SUM(Sales), SUM(Profit))") {
			named = true
			break
		}
	}
	if !named {
		t.Error("ranked description does not name the correlation type")
	}

	// A MIN/MAX secondary is declared only through the evaluator's Requires
	// set: the session-built substrate must materialize it, or the query the
	// evaluator issues fails with "unit lacks column".
	an = analyzeOnce(t, tab, req, metainsight.WithCorrelationPatterns([2]metainsight.Measure{
		metainsight.Sum("Sales"), metainsight.Max("Profit"),
	}))
	if _, err := an.Engine().BasicQuery(metainsight.DataScope{
		Breakdown: "Month", Measure: metainsight.Max("Profit"),
	}); err != nil {
		t.Fatal(err)
	}
}
