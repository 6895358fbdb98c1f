package metainsight

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/workload"
)

// TestOrdinalsNeverReachOutput: the memos and the replay key units and
// scopes by the session's handle and measure ordinals, which depend on what
// the session interned before. A session whose interner basic queries over
// subspaces in reverse domain order, and then a request with other
// measures, have primed gives the request's measures and subspaces other
// ordinals than a fresh session does; the request's insights, MetaInsights,
// Stats and trace must still be byte-identical to the fresh session's, at
// Workers 1 and 8.
func TestOrdinalsNeverReachOutput(t *testing.T) {
	tab := workload.CreditCard()
	other := []Measure{Max("Spend"), Avg("Transactions"), Count("*")}
	prime := func(t *testing.T, s *Session) {
		t.Helper()
		eng, err := engine.New(tab, engine.Config{Interner: s.in, Measures: []model.Measure{Avg("Spend")}})
		if err != nil {
			t.Fatal(err)
		}
		dims := tab.Dimensions()
		for i := len(dims) - 1; i >= 0; i-- {
			d, breakdown := dims[i], dims[(i+1)%len(dims)].Name
			for v := d.Cardinality() - 1; v >= 0; v-- {
				ds := model.DataScope{Subspace: model.EmptySubspace.With(d.Name, d.Value(v)), Breakdown: breakdown, Measure: Avg("Spend")}
				if _, err := eng.BasicQuery(ds); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Analyze(context.Background(), Request{TopK: 3, Measures: other}); err != nil {
			t.Fatal(err)
		}
	}
	type run struct {
		insights, mis []byte
		stats         MiningStats
		trace         []TraceEvent
	}
	analyze := func(t *testing.T, s *Session) run {
		t.Helper()
		ob := NewObserver(ObserverOptions{TraceCapacity: 1 << 16})
		an, err := s.Analyze(context.Background(), Request{TopK: 10, Observer: ob})
		if err != nil {
			t.Fatal(err)
		}
		var r run
		if r.insights, err = json.Marshal(an.Insights); err != nil {
			t.Fatal(err)
		}
		if r.mis, err = json.Marshal(an.Result.All()); err != nil {
			t.Fatal(err)
		}
		if n := ob.Trace().Dropped(); n > 0 {
			t.Fatalf("trace ring dropped %d events", n)
		}
		r.stats, r.trace = an.Result.Stats, ob.Trace().Events()
		for i := range r.trace {
			r.trace[i].WallNanos = 0
		}
		return r
	}
	// ordinals returns the session's ordinals of the default measures and the
	// ids of the units of every single-filter subspace by the first dimension.
	ordinals := func(t *testing.T, s *Session) (measures []uint32, units []uint64) {
		t.Helper()
		eng, err := engine.New(tab, engine.Config{Interner: s.in})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tab.Dimensions()[1:] {
			for v := range d.Cardinality() {
				units = append(units, uint64(eng.UnitIDAt(eng.Intern(model.EmptySubspace.With(d.Name, d.Value(v))), 0)))
			}
		}
		return eng.MeasureIDs(), units
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			session := func() *Session {
				s, err := NewSession(tab, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			fresh, warm := session(), session()
			prime(t, warm)
			want, got := analyze(t, fresh), analyze(t, warm)

			wantM, wantU := ordinals(t, fresh)
			gotM, gotU := ordinals(t, warm)
			if slices.Equal(wantM, gotM) || slices.Equal(wantU, gotU) {
				t.Fatalf("vacuous: the primed session gives the same ordinals as a fresh one (measures %v / %v, units equal %v)",
					wantM, gotM, slices.Equal(wantU, gotU))
			}
			if len(want.mis) <= len("null") {
				t.Fatal("vacuous: nothing mined")
			}
			for _, c := range []struct {
				name      string
				want, got []byte
			}{
				{"insights", want.insights, got.insights},
				{"MetaInsights", want.mis, got.mis},
			} {
				if !bytes.Equal(c.got, c.want) {
					t.Errorf("the primed session's %s (%d bytes) differ from a fresh session's (%d bytes)", c.name, len(c.got), len(c.want))
				}
			}
			if got.stats != want.stats {
				t.Errorf("stats differ:\n fresh  %+v\n primed %+v", want.stats, got.stats)
			}
			if !reflect.DeepEqual(got.trace, want.trace) {
				t.Errorf("the primed session's trace (%d events) differs from a fresh session's (%d)", len(got.trace), len(want.trace))
			}
		})
	}
}

// TestUnknownCountColumnTakesNoOrdinal: a request naming COUNT over a column
// the table lacks is refused before any of its measures takes one of the
// session's measure ordinals, so a server's clients cannot fill a session's
// measure table with made-up names; the session keeps serving.
func TestUnknownCountColumnTakesNoOrdinal(t *testing.T) {
	tab := workload.CreditCard()
	s, err := NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := engine.New(tab, engine.Config{Interner: s.in})
	if err != nil {
		t.Fatal(err)
	}
	before, ok := probe.MeasureID(Avg("Spend"))
	if !ok {
		t.Fatal("AVG(Spend) got no ordinal")
	}
	for i := 0; i < 3; i++ {
		req := Request{TopK: 3, Measures: []Measure{Count(fmt.Sprintf("x%d", i)), Sum("Spend")}}
		if _, err := s.Analyze(context.Background(), req); err == nil {
			t.Fatalf("COUNT(x%d) accepted", i)
		}
	}
	if after, ok := probe.MeasureID(Min("Spend")); !ok || after != before+1 {
		t.Errorf("refused requests took ordinals: the next measure got %d, want %d", after, before+1)
	}
	if _, err := s.Analyze(context.Background(), Request{TopK: 3}); err != nil {
		t.Errorf("session stopped serving after refused requests: %v", err)
	}
}
