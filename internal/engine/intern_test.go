package engine

import (
	"math/rand"
	"sync"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// escapeTable has dimension names and values containing every key separator,
// so the handle/value agreement below also covers escaped keys.
func escapeTable() *dataset.Table {
	b := dataset.NewBuilder("esc", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B;=", Kind: model.KindCategorical},
		{Name: "C|{}", Kind: model.KindTemporal},
		{Name: "D", Kind: model.KindCategorical},
		{Name: "M", Kind: model.KindMeasure},
	})
	as := []string{"x", "x;B=y", "{", "\\"}
	bs := []string{"y", "=", "y}|"}
	cs := []string{"2019-01", "2019-02", "2019-03"}
	ds := []string{"p", "q", "r", "s", "t"}
	for i := 0; i < 120; i++ {
		b.AddRow([]string{as[i%len(as)], bs[i%len(bs)], cs[i%len(cs)], ds[i%len(ds)]}, []float64{float64(i)})
	}
	return b.Build()
}

// TestHandleNavigationAgreesWithSubspaceValues drives random With/Without
// chains through handles (by dimension index and code) and through
// model.Subspace (by name and value) side by side: at every step the handle
// must carry the value's key and filters, and interning the value must yield
// that very handle. Eight goroutines share one interner, so run under -race
// the test also covers concurrent link and table construction.
func TestHandleNavigationAgreesWithSubspaceValues(t *testing.T) {
	for _, tab := range []*dataset.Table{randomTable(5, 200), escapeTable()} {
		in := NewInterner(tab)
		dims := tab.Dimensions()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				// Goroutines reuse seeds pairwise so identical chains race.
				r := rand.New(rand.NewSource(seed / 2))
				for chain := 0; chain < 200; chain++ {
					h, s := in.Intern(model.EmptySubspace), model.EmptySubspace
					for step := 0; step < 8; step++ {
						d := r.Intn(len(dims))
						if r.Intn(3) == 0 {
							h, s = h.Without(d), s.Without(dims[d].Name)
						} else {
							code := r.Intn(dims[d].Cardinality())
							h, s = h.With(d, code), s.With(dims[d].Name, dims[d].Value(code))
						}
						if h.Key() != s.Key() || h.Subspace().Key() != s.Key() {
							t.Errorf("handle %q %v diverged from value %q %v", h.Key(), h.Subspace(), s.Key(), s)
							return
						}
						if got := in.Intern(s); got != h {
							t.Errorf("Intern(%v) = %p (%q), navigation reached %p (%q)", s, got, got.Key(), h, h.Key())
							return
						}
						for di := range dims {
							if h.Has(di) != s.Has(dims[di].Name) {
								t.Errorf("%q: Has(%d) = %v, value says %v", h.Key(), di, h.Has(di), !h.Has(di))
								return
							}
						}
						if !h.Valid() {
							t.Errorf("%q built from domain values reports invalid", h.Key())
							return
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
}

// TestInternForeignSubspaces covers handles that cannot be reached by
// navigation: values outside a dimension's domain and unknown dimensions are
// interned as invalid handles that match no rows instead of failing.
func TestInternForeignSubspaces(t *testing.T) {
	tab := randomTable(6, 100)
	sub := NewColumnarSubstrate(tab)
	for _, s := range []model.Subspace{
		model.EmptySubspace.With("City", "Atlantis"),
		model.EmptySubspace.With("Planet", "Mars"),
		model.EmptySubspace.With("City", "LA").With("Planet", "Mars"),
	} {
		h := sub.in.Intern(s)
		if h.Valid() || h.Key() != s.Key() {
			t.Errorf("Intern(%v): valid=%v key=%q", s, h.Valid(), h.Key())
		}
		if rows := h.plan(nil).rows; rows != 0 {
			t.Errorf("plan(%v) drives %d rows, want 0", s, rows)
		}
		u, rows := sub.ScanUnitAt(h, tab.DimensionIndex("Month"))
		if rows != 0 || u.Len() != 0 {
			t.Errorf("ScanUnitAt(%v) = %d groups, %d rows; want an empty unit", s, u.Len(), rows)
		}
	}
}

// TestEnginesShareOneInterner: engines given one Config.Interner plan each
// subspace once between them — the second engine's cost estimate and scan
// build no plan — and an interner over another table is refused.
func TestEnginesShareOneInterner(t *testing.T) {
	tab := randomTable(7, 300)
	in := NewInterner(tab)
	s := model.EmptySubspace.With("City", "LA").With("Style", "Condo")
	month := tab.DimensionIndex("Month")
	var planBytes [2]int64
	for i := range planBytes {
		ob := obs.New(obs.Options{})
		e, err := New(tab, Config{Interner: in, Observer: ob})
		if err != nil {
			t.Fatal(err)
		}
		h := e.Intern(s)
		e.ScanCostAt(h)
		e.MaterializeUnitAt(h, month, nil)
		planBytes[i] = ob.Snapshot().Counters["engine.physical.plan_bytes"]
	}
	if planBytes[0] == 0 || planBytes[1] != 0 {
		t.Errorf("plan bytes per engine = %v, want the first engine alone to build the plan", planBytes)
	}
	if _, err := New(randomTable(8, 300), Config{Interner: in}); err == nil {
		t.Error("an interner over another table was accepted")
	}
}

// TestOrdinalsAreDenseAndRoundTrip: handles interned concurrently get the
// ordinals 0 … Len()-1, each once, each ordinal resolves back to its handle,
// and the ids built from them render to the canonical external keys:
// UnitKeyOf and ScopeKeyOf equal the Key of the unit and the data scope they
// name, for keys with escaped separators too.
func TestOrdinalsAreDenseAndRoundTrip(t *testing.T) {
	tab := escapeTable()
	in := NewInterner(tab)
	e, err := New(tab, Config{Interner: in, Measures: []model.Measure{model.Sum("M"), model.Count("*")}})
	if err != nil {
		t.Fatal(err)
	}
	dims := tab.Dimensions()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for chain := 0; chain < 100; chain++ {
				h := in.Intern(model.EmptySubspace)
				for step := 0; step < 4; step++ {
					d := r.Intn(len(dims))
					h = h.With(d, r.Intn(dims[d].Cardinality()))
				}
			}
		}(int64(g))
	}
	wg.Wait()

	seen := make([]bool, in.Len())
	for _, h := range in.byKey {
		if int(h.ord) >= len(seen) || seen[h.ord] || in.handle(h.ord) != h {
			t.Fatalf("%q: ordinal %d of %d handles is out of range, taken twice or not its own", h.Key(), h.ord, len(seen))
		}
		seen[h.ord] = true
		for d, dim := range dims {
			id := e.UnitIDAt(h, d)
			k := e.UnitKeyOf(id)
			if k != (cache.UnitKey{Subspace: h.Key(), Breakdown: dim.Name}) {
				t.Fatalf("UnitKeyOf(%q, %q) = %+v", h.Key(), dim.Name, k)
			}
			for i, m := range e.Measures() {
				sid := id.Scope(e.MeasureIDs()[i])
				sk := e.ScopeKeyOf(sid)
				ds := model.DataScope{Subspace: h.Subspace(), Breakdown: dim.Name, Measure: m}
				if sk.String() != ds.Key() || sid.Unit() != id {
					t.Fatalf("ScopeKeyOf(%x) = %q, want %q", sid, sk.String(), ds.Key())
				}
			}
		}
	}
}
