package metainsight_test

// One ledger: the miner's commit-order replay is the only accounting, so
// nothing a worker does physically — which scopes it races another worker
// for, which queries a scope-aware evaluator issues from inside an
// evaluation — may show in Stats or in the results.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"metainsight"
)

// ledgerTable is a 2,304-row table over four dimensions — every combination
// of 8 regions, 6 channels, 4 segments and 12 months, once — with fractional
// Sales and a Profit that tracks Sales in most regions and runs against it in
// one.
func ledgerTable(t *testing.T) *metainsight.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(26))
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	header := []string{"Region", "Channel", "Segment", "Month", "Sales", "Profit"}
	var records [][]string
	for region := 0; region < 8; region++ {
		for channel := 0; channel < 6; channel++ {
			for segment := 0; segment < 4; segment++ {
				for m, month := range months {
					sales := 100 + 10*float64(region) + 30*math.Sin(float64(m)/2) + 15*r.NormFloat64()
					sign := 1.0
					if region == 7 {
						sign = -1
					}
					profit := sign*0.2*sales + 3*r.NormFloat64()
					records = append(records, []string{
						fmt.Sprintf("r%d", region), fmt.Sprintf("c%d", channel), fmt.Sprintf("s%d", segment), month,
						strconv.FormatFloat(sales, 'f', -1, 64), strconv.FormatFloat(profit, 'f', -1, 64),
					})
				}
			}
		}
	}
	tab, err := metainsight.FromRecords("ledger", header, records)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPatternScopesEvaluatedExactlyOnce: at Workers 8, every data scope an
// unbudgeted run evaluates is evaluated exactly once, however the workers
// race for it — so a counting custom evaluator is called exactly as often as
// the run's pattern cache has entries — and a second and a third request on
// the same session evaluate nothing: they read the session's pattern memo.
// The pattern cache used to evaluate a scope again when a worker missed it
// just before another worker's Put.
func TestPatternScopesEvaluatedExactlyOnce(t *testing.T) {
	tab := ledgerTable(t)
	req := metainsight.Request{Measures: []metainsight.Measure{metainsight.Sum("Sales")}}
	for run := 0; run < 30; run++ {
		var calls atomic.Int64
		counter := metainsight.CustomPattern{
			Name: "Counter",
			Evaluate: func([]string, []float64) metainsight.PatternEvaluation {
				calls.Add(1)
				return metainsight.PatternEvaluation{}
			},
		}
		s, err := metainsight.NewSession(tab,
			metainsight.WithCustomPatternTypes(counter),
			metainsight.WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		an, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		entries := an.Result.Stats.PatternCacheStats.Entries
		if entries == 0 {
			t.Fatal("vacuous: no scope evaluated")
		}
		if got := calls.Load(); got != entries {
			t.Fatalf("run %d: the evaluator ran %d times for %d scopes", run, got, entries)
		}
		for again := 2; again <= 3; again++ {
			if _, err := s.Analyze(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load() - entries; got != 0 {
				t.Fatalf("run %d: request %d on the session ran the evaluator %d times, want 0", run, again, got)
			}
		}
		s.Close()
	}
}

// TestCorrelationRunsAreWorkerInvariant: a correlation evaluator reads the
// secondary measure through the engine from inside an evaluation, on a
// worker goroutine. Those reads are not charged, so unbudgeted and
// cost-budgeted runs report the same Stats, keys and scores at Workers 1
// and 8. They used to be charged as cache-served queries as the workers
// happened to issue them, duplicates and speculation included.
func TestCorrelationRunsAreWorkerInvariant(t *testing.T) {
	tab := ledgerTable(t)
	type outcome struct {
		stats  metainsight.MiningStats
		keys   []string
		scores []float64
	}
	arms := []struct {
		name string
		req  metainsight.Request
	}{
		{"unbudgeted", metainsight.Request{}},
		{"budget 300", metainsight.Request{Budget: metainsight.Budget{Cost: 300}}},
	}
	for _, arm := range arms {
		arm.req.Measures = []metainsight.Measure{metainsight.Sum("Sales"), metainsight.Sum("Profit")}
		var want *outcome
		for _, workers := range []int{1, 8} {
			s, err := metainsight.NewSession(tab,
				metainsight.WithCorrelationPatterns([2]metainsight.Measure{
					metainsight.Sum("Sales"), metainsight.Sum("Profit"),
				}),
				metainsight.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 3; run++ {
				an, err := s.Analyze(context.Background(), arm.req)
				if err != nil {
					t.Fatal(err)
				}
				got := outcome{stats: an.Result.Stats}
				// Sizes are reporting-only and best-effort (see Stats).
				got.stats.QueryCacheStats.Bytes = 0
				for _, mi := range an.Result.All() {
					got.keys = append(got.keys, mi.Key())
					got.scores = append(got.scores, mi.Score)
				}
				label := fmt.Sprintf("%s, %d workers, run %d", arm.name, workers, run)
				if want == nil {
					if len(got.keys) == 0 || got.stats.CacheServed == 0 {
						t.Fatalf("%s: vacuous run: %d insights, stats %+v", label, len(got.keys), got.stats)
					}
					want = &got
					continue
				}
				if got.stats != want.stats {
					t.Fatalf("%s: stats differ from 1 worker\n want %+v\n got  %+v", label, want.stats, got.stats)
				}
				if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.scores, want.scores) {
					t.Fatalf("%s: %d results differ from 1 worker's %d", label, len(got.keys), len(want.keys))
				}
			}
			s.Close()
		}
	}
}
