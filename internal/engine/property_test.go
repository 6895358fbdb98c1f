package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// TestBasicQueryMatchesNaiveProperty cross-checks the engine against direct
// row iteration over many random data scopes, aggregates and filter depths —
// the fundamental correctness property everything above the engine rests on.
func TestBasicQueryMatchesNaiveProperty(t *testing.T) {
	tab := randomTable(99, 800)
	e := newEngine(t, tab)
	r := rand.New(rand.NewSource(17))
	dims := tab.DimensionNames()
	aggs := []func(string) model.Measure{model.Sum, model.Avg, model.Min, model.Max}

	for trial := 0; trial < 300; trial++ {
		// Random subspace of random depth.
		sub := model.EmptySubspace
		depth := r.Intn(3)
		for d := 0; d < depth; d++ {
			dim := tab.Dimension(dims[r.Intn(len(dims))])
			sub = sub.With(dim.Name, dim.Domain()[r.Intn(dim.Cardinality())])
		}
		// Random unfiltered breakdown.
		breakdown := dims[r.Intn(len(dims))]
		if sub.Has(breakdown) {
			continue
		}
		var meas model.Measure
		if r.Intn(5) == 0 {
			meas = model.Count("*")
		} else {
			col := []string{"Sales", "Profit"}[r.Intn(2)]
			meas = aggs[r.Intn(len(aggs))](col)
		}
		ds := model.DataScope{Subspace: sub, Breakdown: breakdown, Measure: meas}
		got, err := e.BasicQuery(ds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := naiveAnyAggregate(tab, ds)
		if len(got.Keys) != len(want) {
			t.Fatalf("trial %d %s: %d groups, want %d", trial, ds, len(got.Keys), len(want))
		}
		for i, k := range got.Keys {
			if math.Abs(got.Values[i]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
				t.Fatalf("trial %d %s [%s]: %v, want %v", trial, ds, k, got.Values[i], want[k])
			}
		}
	}
}

// naiveAnyAggregate computes the reference result for any aggregate by
// direct row iteration.
func naiveAnyAggregate(tab *dataset.Table, ds model.DataScope) map[string]float64 {
	bcol := tab.Dimension(ds.Breakdown)
	sums := map[string]float64{}
	counts := map[string]float64{}
	mins := map[string]float64{}
	maxs := map[string]float64{}
	mcol := tab.MeasureColumn(ds.Measure.Column)
	for r := 0; r < tab.Rows(); r++ {
		match := true
		for _, f := range ds.Subspace {
			col := tab.Dimension(f.Dim)
			if col.Value(int(col.CodeAt(r))) != f.Value {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		g := bcol.Value(int(bcol.CodeAt(r)))
		counts[g]++
		if mcol != nil {
			v := mcol.At(r)
			sums[g] += v
			if counts[g] == 1 || v < mins[g] {
				mins[g] = v
			}
			if counts[g] == 1 || v > maxs[g] {
				maxs[g] = v
			}
		}
	}
	out := map[string]float64{}
	for g, c := range counts {
		switch ds.Measure.Agg {
		case model.AggCount:
			out[g] = c
		case model.AggSum:
			out[g] = sums[g]
		case model.AggAvg:
			out[g] = sums[g] / c
		case model.AggMin:
			out[g] = mins[g]
		case model.AggMax:
			out[g] = maxs[g]
		}
	}
	return out
}

// TestAugmentedEqualsBasicsProperty checks, over random anchors, that
// augmented-query units agree with independently executed basic queries for
// every sibling and measure.
func TestAugmentedEqualsBasicsProperty(t *testing.T) {
	tab := randomTable(7, 600)
	r := rand.New(rand.NewSource(3))
	dims := tab.DimensionNames()
	for trial := 0; trial < 40; trial++ {
		e := newEngine(t, tab)
		ref := newEngine(t, tab)
		extDim := dims[r.Intn(len(dims))]
		breakdown := dims[r.Intn(len(dims))]
		if breakdown == extDim {
			continue
		}
		col := tab.Dimension(extDim)
		anchor := model.DataScope{
			Subspace:  model.NewSubspace(model.Filter{Dim: extDim, Value: col.Domain()[r.Intn(col.Cardinality())]}),
			Breakdown: breakdown,
			Measure:   model.Sum("Sales"),
		}
		base := e.Intern(anchor.Subspace.Without(extDim))
		units := e.MaterializeAugmentedAt(base, tab.DimensionIndex(breakdown), tab.DimensionIndex(extDim))
		for code, u := range units {
			if u.Len() == 0 {
				continue
			}
			for _, m := range []model.Measure{model.Sum("Sales"), model.Avg("Profit"), model.Count("*")} {
				ds := model.DataScope{
					Subspace:  anchor.Subspace.With(extDim, col.Value(code)),
					Breakdown: breakdown,
					Measure:   m,
				}
				want, err := ref.BasicQuery(ds)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Extract(u, ds)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Keys) != len(want.Keys) {
					t.Fatalf("%s %s: %d vs %d groups", ds, m, len(got.Keys), len(want.Keys))
				}
				for i := range got.Keys {
					if got.Keys[i] != want.Keys[i] ||
						math.Abs(got.Values[i]-want.Values[i]) > 1e-9*(1+math.Abs(want.Values[i])) {
						t.Fatalf("%s [%s]: %v vs %v", ds, got.Keys[i], got.Values[i], want.Values[i])
					}
				}
			}
		}
	}
}

// TestCacheTransparencyProperty: for any sequence of random queries, results
// from one engine that caches every unit equal those of a fresh engine per
// query, which has nothing cached.
func TestCacheTransparencyProperty(t *testing.T) {
	tab := randomTable(5, 500)
	cached := newEngine(t, tab)
	r := rand.New(rand.NewSource(11))
	dims := tab.DimensionNames()
	for trial := 0; trial < 200; trial++ {
		breakdown := dims[r.Intn(len(dims))]
		sub := model.EmptySubspace
		if r.Intn(2) == 0 {
			d := dims[r.Intn(len(dims))]
			if d != breakdown {
				col := tab.Dimension(d)
				sub = sub.With(d, col.Domain()[r.Intn(col.Cardinality())])
			}
		}
		ds := model.DataScope{Subspace: sub, Breakdown: breakdown, Measure: model.Sum("Sales")}
		a, errA := cached.BasicQuery(ds)
		b, errB := newEngine(t, tab).BasicQuery(ds)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error mismatch: %v vs %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(a.Keys) != len(b.Keys) {
			t.Fatalf("%s: %d vs %d groups", ds, len(a.Keys), len(b.Keys))
		}
		for i := range a.Keys {
			if a.Keys[i] != b.Keys[i] || a.Values[i] != b.Values[i] {
				t.Fatalf("%s: cache changed result at %s", ds, a.Keys[i])
			}
		}
	}
	if physicalScans(cached) >= 200 {
		t.Error("cache never served — the property was not exercised")
	}
}

// sparseTable draws rows over four dimensions from a skewed distribution, so
// 2-D group-bys under one or two filters have empty siblings and groups
// present in one sibling only, with fractional measures. clustered sorts the
// rows, giving filtered scans long runs.
func sparseTable(seed int64, rows int, clustered bool) *dataset.Table {
	r := rand.New(rand.NewSource(seed))
	cards := []int{5, 4, 3, 6}
	codes := make([][4]int, rows)
	for i := range codes {
		for d, card := range cards {
			codes[i][d] = int(float64(card) * r.Float64() * r.Float64()) // skewed toward 0
		}
	}
	if clustered {
		sort.Slice(codes, func(i, j int) bool {
			for d := range cards {
				if codes[i][d] != codes[j][d] {
					return codes[i][d] < codes[j][d]
				}
			}
			return false
		})
	}
	b := dataset.NewBuilder("sparse", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "C", Kind: model.KindCategorical},
		{Name: "D", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
		{Name: "W", Kind: model.KindMeasure},
	})
	for _, c := range codes {
		b.AddRow([]string{
			fmt.Sprintf("a%d", c[0]), fmt.Sprintf("b%d", c[1]), fmt.Sprintf("c%d", c[2]), fmt.Sprintf("d%d", c[3]),
		}, []float64{r.NormFloat64() * 1e3, r.Float64()})
	}
	return b.Build()
}

// TestAugmentedTransposeExactProperty pins pair sharing: on random and
// clustered fractional tables, for every base of 0–2 filters (one with an
// absent value) and every dimension pair, a fresh engine asked for both
// orientations — in either order — scans once and returns for each the bytes
// a direct substrate scan of that orientation produces, MIN/MAX columns,
// empty siblings and one-sibling-only groups included. Under a disabled query
// cache nothing is remembered (the memo must not pin what the cache drops):
// same bytes, one scan per request.
func TestAugmentedTransposeExactProperty(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		tab := sparseTable(21, 1500, clustered)
		sub := newColumnarSubstrate(tab, columnarConfig{morsel: 64})
		dims := tab.DimensionNames()
		direct := func(base model.Subspace, b, ext int) ([]cache.Unit, string) {
			units, _ := sub.ScanAugmentedAt(sub.in.Intern(base), b, ext)
			return units, unitJSON(t, units)
		}
		sawEmptySibling, sawPartialGroup := false, false
		for b := 0; b < len(dims); b++ {
			for ext := b + 1; ext < len(dims); ext++ {
				var free []int
				for d := range dims {
					if d != b && d != ext {
						free = append(free, d)
					}
				}
				f0, f1 := tab.Dimension(dims[free[0]]), tab.Dimension(dims[free[1]])
				bases := []model.Subspace{
					model.EmptySubspace,
					model.EmptySubspace.With(f0.Name, "___absent___"),
				}
				for _, v := range f0.Domain() {
					bases = append(bases, model.EmptySubspace.With(f0.Name, v))
					for _, w := range f1.Domain() {
						bases = append(bases, model.EmptySubspace.With(f0.Name, v).With(f1.Name, w))
					}
				}
				for _, base := range bases {
					units, w0 := direct(base, b, ext)
					_, w1 := direct(base, ext, b)
					want := [2]string{w0, w1}
					nonEmpty := 0
					for _, u := range units {
						if u.Len() == 0 {
							continue
						}
						nonEmpty++
						if u.Len() < tab.Dimension(dims[b]).Cardinality() {
							sawPartialGroup = true
						}
					}
					if nonEmpty > 0 && nonEmpty < len(units) {
						sawEmptySibling = true
					}
					for _, tc := range []struct {
						name string
						swap bool // ask for (ext, b) first
					}{
						{"in order", false},
						{"swapped", true},
					} {
						ob := obs.New(obs.Options{})
						e, err := New(tab, Config{Substrate: sub, Observer: ob})
						if err != nil {
							t.Fatal(err)
						}
						h := e.Intern(base)
						ask := func(bd, xd int) string {
							units := e.MaterializeAugmentedAt(h, bd, xd)
							for code, u := range units {
								if u.Len() == 0 {
									continue
								}
								if cached, ok := e.QueryCache().Get(e.UnitIDAt(h.With(xd, code), bd)); !ok || &cached.Data[0] != &u.Data[0] {
									t.Fatalf("%s [%s] %s+%s: unit %+v not in the query cache", tc.name, base.Key(), dims[bd], dims[xd], e.UnitKeyOf(e.UnitIDAt(h.With(xd, code), bd)))
								}
							}
							return unitJSON(t, units)
						}
						var got [2]string
						if tc.swap {
							got[1], got[0] = ask(ext, b), ask(b, ext)
						} else {
							got[0], got[1] = ask(b, ext), ask(ext, b)
						}
						// Asking again must not change what is served.
						if again := ask(ext, b); again != got[1] {
							t.Fatalf("%s [%s] %s+%s: repeated request differs", tc.name, base.Key(), dims[ext], dims[b])
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s [%s] orientation %d of {%s, %s}: engine\n %s\ndirect scan\n %s",
									tc.name, base.Key(), i, dims[b], dims[ext], got[i], want[i])
							}
						}
						if scans := ob.Snapshot().Counters["engine.physical.augmented_scans"]; scans != 1 {
							t.Fatalf("%s [%s] {%s, %s}: %d physical scans, want 1", tc.name, base.Key(), dims[b], dims[ext], scans)
						}
					}
				}
			}
		}
		if !sawEmptySibling || !sawPartialGroup {
			t.Fatalf("clustered=%v: table too dense to exercise empty siblings (%v) or partial groups (%v)",
				clustered, sawEmptySibling, sawPartialGroup)
		}
	}
}

// TestAugmentedPairConcurrent races both orientations of one pair from many
// goroutines on one engine: every caller gets the direct scan's bytes and the
// table is scanned exactly once, whichever orientation won the flight.
func TestAugmentedPairConcurrent(t *testing.T) {
	tab := sparseTable(23, 1500, true)
	sub := newColumnarSubstrate(tab, columnarConfig{morsel: 64})
	base := model.EmptySubspace.With("A", "a0")
	b, d := tab.DimensionIndex("B"), tab.DimensionIndex("D")
	var want [2]string
	for i, o := range [2][2]int{{b, d}, {d, b}} {
		units, _ := sub.ScanAugmentedAt(sub.in.Intern(base), o[0], o[1])
		want[i] = unitJSON(t, units)
	}
	for round := 0; round < 20; round++ {
		ob := obs.New(obs.Options{})
		e, err := New(tab, Config{Substrate: sub, Observer: ob})
		if err != nil {
			t.Fatal(err)
		}
		h := e.Intern(base)
		var wg sync.WaitGroup
		got := make([][]cache.Unit, 16)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					got[i] = e.MaterializeAugmentedAt(h, b, d)
				} else {
					got[i] = e.MaterializeAugmentedAt(h, d, b)
				}
			}()
		}
		wg.Wait()
		for i, units := range got {
			if g := unitJSON(t, units); g != want[i%2] {
				t.Fatalf("round %d caller %d: engine\n %s\ndirect scan\n %s", round, i, g, want[i%2])
			}
		}
		if scans := ob.Snapshot().Counters["engine.physical.augmented_scans"]; scans != 1 {
			t.Fatalf("round %d: %d physical scans, want 1", round, scans)
		}
	}
}
