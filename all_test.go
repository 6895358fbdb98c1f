package metainsight_test

import (
	"context"
	"reflect"
	"testing"

	"metainsight"
	"metainsight/internal/ranker"
	"metainsight/internal/workload"
)

// TestAllIsInert: Analyze builds only the ranked MetaInsights, and building
// every candidate afterwards with MiningResult.All changes nothing the run
// reported — not its Stats, not the deterministic part of its metrics
// snapshot, not the trace, and not the session memos' occupancy
// (cache.*.entries and cache.*.slots) — because a build reads the memos the
// run filled and records nothing. The ranked insights are the paper's greedy
// selection over All's candidates, so ranking rows and ranking MetaInsights
// are one algorithm. Hotel Booking has two temporal dimensions, so all three
// extension strategies are built. Concurrent All calls share one build.
func TestAllIsInert(t *testing.T) {
	sess, err := metainsight.NewSession(workload.HotelBooking())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ob := metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 20})
	an, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	res := an.Result
	if res.MetaInsights != nil {
		t.Fatalf("Analyze built all %d candidates", len(res.MetaInsights))
	}
	stats, before, events := res.Stats, an.Snapshot(), ob.Trace().Len()

	// Callers may race to read the candidates; one builds them, and every
	// caller gets that one slice.
	built := make(chan []*metainsight.MetaInsight, 4)
	for range cap(built) {
		go func() { built <- res.All() }()
	}
	all := <-built
	for range cap(built) - 1 {
		if again := <-built; len(again) != len(all) || len(all) > 0 && &again[0] != &all[0] {
			t.Error("concurrent All calls built the candidates more than once")
		}
	}
	if len(all) != res.Len() || len(all) == 0 {
		t.Fatalf("All returned %d candidates, Len says %d", len(all), res.Len())
	}
	after := an.Snapshot()
	if res.Stats != stats {
		t.Errorf("All moved Stats:\n  before %+v\n  after  %+v", stats, res.Stats)
	}
	if !reflect.DeepEqual(before.Deterministic(), after.Deterministic()) {
		t.Errorf("All moved the deterministic metrics:\n  before %v\n  after  %v", before.Deterministic(), after.Deterministic())
	}
	for _, g := range []string{"cache.query.entries", "cache.query.slots", "cache.pattern.entries", "cache.pattern.slots", "engine.interned_handles"} {
		if before.Gauges[g] != after.Gauges[g] {
			t.Errorf("All moved %s from %v to %v", g, before.Gauges[g], after.Gauges[g])
		}
	}
	if n := ob.Trace().Len(); n != events {
		t.Errorf("All traced %d events", n-events)
	}

	keys := res.Keys()
	for i, mi := range all {
		if !keys[mi.Key()] {
			t.Fatalf("candidate %d, %s, is not among Keys", i, mi.Key())
		}
		if i > 0 && (mi.Score > all[i-1].Score || mi.Score == all[i-1].Score && mi.Key() < all[i-1].Key()) {
			t.Fatalf("candidates %d and %d are out of result order", i-1, i)
		}
	}
	want := ranker.Greedy(all, 10)
	if len(an.Insights) != len(want) {
		t.Fatalf("ranked %d insights, the greedy selection over All %d", len(an.Insights), len(want))
	}
	for i, in := range an.Insights {
		if got := in.MetaInsight(); got.Key() != want[i].Key() || !reflect.DeepEqual(got, want[i]) {
			t.Errorf("insight %d is %s, the greedy selection over All has %s", i, got.Key(), want[i].Key())
		}
	}
}
