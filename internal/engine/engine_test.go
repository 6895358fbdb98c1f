package engine

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

// randomTable builds a deterministic random table for reference checks.
func randomTable(seed int64, rows int) *dataset.Table {
	r := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("rand", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "Style", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "Sales", Kind: model.KindMeasure},
		{Name: "Profit", Kind: model.KindMeasure},
	})
	cities := []string{"LA", "SF", "SD", "SJ"}
	styles := []string{"1Story", "2Story", "Condo"}
	months := []string{"Jan", "Feb", "Mar", "Apr"}
	for i := 0; i < rows; i++ {
		b.AddRow(
			[]string{cities[r.Intn(len(cities))], styles[r.Intn(len(styles))], months[r.Intn(len(months))]},
			[]float64{math.Floor(r.Float64() * 1000), math.Floor(r.Float64()*200) - 100},
		)
	}
	return b.Build()
}

func newEngine(t *testing.T, tab *dataset.Table, qcEnabled bool) *Engine {
	t.Helper()
	// Tests query MIN/MAX ad hoc, so declare them over every measure column;
	// production callers declare only what registered evaluators need.
	var extras []model.Measure
	for _, mc := range tab.MeasureColumns() {
		extras = append(extras, model.Min(mc.Name), model.Max(mc.Name))
	}
	e, err := New(tab, Config{QueryCache: cache.NewQueryCache(qcEnabled), ExtraMeasures: extras})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// naiveAggregate computes the reference result of a basic query by direct
// row iteration.
func naiveAggregate(tab *dataset.Table, ds model.DataScope) (map[string]float64, map[string]float64) {
	sums := map[string]float64{}
	counts := map[string]float64{}
	bcol := tab.Dimension(ds.Breakdown)
	var mcol *dataset.MeasureColumn
	if ds.Measure.Agg != model.AggCount {
		mcol = tab.MeasureColumn(ds.Measure.Column)
	}
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
			sums[g] += mcol.At(r)
		}
	}
	return sums, counts
}

func TestBasicQueryMatchesNaiveSum(t *testing.T) {
	tab := randomTable(1, 500)
	e := newEngine(t, tab, true)
	ds := model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}
	s, err := e.BasicQuery(ds)
	if err != nil {
		t.Fatal(err)
	}
	sums, _ := naiveAggregate(tab, ds)
	if len(s.Keys) != len(sums) {
		t.Fatalf("groups = %d, want %d", len(s.Keys), len(sums))
	}
	for i, k := range s.Keys {
		if math.Abs(s.Values[i]-sums[k]) > 1e-9 {
			t.Errorf("SUM[%s] = %v, want %v", k, s.Values[i], sums[k])
		}
	}
}

func TestBasicQueryAggregates(t *testing.T) {
	b := dataset.NewBuilder("t", []model.Field{
		{Name: "G", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	for i, g := range []string{"a", "a", "a", "b", "b"} {
		b.AddRow([]string{g}, []float64{float64(i + 1)}) // a: 1,2,3  b: 4,5
	}
	e := newEngine(t, b.Build(), true)
	cases := []struct {
		m    model.Measure
		want map[string]float64
	}{
		{model.Sum("V"), map[string]float64{"a": 6, "b": 9}},
		{model.Count("*"), map[string]float64{"a": 3, "b": 2}},
		{model.Avg("V"), map[string]float64{"a": 2, "b": 4.5}},
		{model.Min("V"), map[string]float64{"a": 1, "b": 4}},
		{model.Max("V"), map[string]float64{"a": 3, "b": 5}},
	}
	for _, c := range cases {
		s, err := e.BasicQuery(model.DataScope{Breakdown: "G", Measure: c.m})
		if err != nil {
			t.Fatalf("%s: %v", c.m, err)
		}
		for i, k := range s.Keys {
			if s.Values[i] != c.want[k] {
				t.Errorf("%s[%s] = %v, want %v", c.m, k, s.Values[i], c.want[k])
			}
		}
	}
}

func TestBasicQueryOmitsEmptyGroups(t *testing.T) {
	b := dataset.NewBuilder("t", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "V", Kind: model.KindMeasure},
	})
	b.AddRow([]string{"LA", "Jan"}, []float64{1})
	b.AddRow([]string{"LA", "Feb"}, []float64{2})
	b.AddRow([]string{"SF", "Mar"}, []float64{3})
	e := newEngine(t, b.Build(), true)
	s, err := e.BasicQuery(model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}),
		Breakdown: "Month",
		Measure:   model.Sum("V"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Keys) != 2 || s.Keys[0] != "Jan" || s.Keys[1] != "Feb" {
		t.Errorf("keys = %v", s.Keys)
	}
}

func TestQueryCacheHitSkipsScan(t *testing.T) {
	tab := randomTable(2, 200)
	e := newEngine(t, tab, true)
	ds := model.DataScope{Breakdown: "Month", Measure: model.Sum("Sales")}
	if _, err := e.BasicQuery(ds); err != nil {
		t.Fatal(err)
	}
	execAfterFirst := e.Meter().ExecutedQueries()
	cost1 := e.Meter().Cost()
	// Same unit, different measure: must be a cache hit.
	ds2 := ds
	ds2.Measure = model.Avg("Profit")
	if _, err := e.BasicQuery(ds2); err != nil {
		t.Fatal(err)
	}
	if e.Meter().ExecutedQueries() != execAfterFirst {
		t.Error("measure variant re-scanned despite cache")
	}
	if e.Meter().Cost() != cost1 {
		t.Error("cache hit charged cost")
	}
	if e.Meter().ServedQueries() != 1 {
		t.Errorf("served = %d", e.Meter().ServedQueries())
	}
}

func TestDisabledCacheAlwaysScans(t *testing.T) {
	tab := randomTable(3, 200)
	e := newEngine(t, tab, false)
	ds := model.DataScope{Breakdown: "Month", Measure: model.Sum("Sales")}
	for i := 0; i < 3; i++ {
		if _, err := e.BasicQuery(ds); err != nil {
			t.Fatal(err)
		}
	}
	if e.Meter().ExecutedQueries() != 3 {
		t.Errorf("executed = %d, want 3", e.Meter().ExecutedQueries())
	}
}

func TestAugmentedQueryMatchesPerSiblingBasics(t *testing.T) {
	tab := randomTable(4, 400)
	// Reference engine without cache interference.
	ref := newEngine(t, tab, false)
	e := newEngine(t, tab, true)
	anchor := model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}
	units, err := e.AugmentedQuery(anchor, "City")
	if err != nil {
		t.Fatal(err)
	}
	for _, city := range []string{"LA", "SF", "SD", "SJ"} {
		u, ok := units[city]
		if !ok {
			t.Fatalf("missing sibling unit for %s", city)
		}
		ds := anchor
		ds.Subspace = anchor.Subspace.With("City", city)
		want, err := ref.BasicQuery(ds)
		if err != nil {
			t.Fatal(err)
		}
		if len(u.GroupKeys) != len(want.Keys) {
			t.Fatalf("%s: group count %d vs %d", city, len(u.GroupKeys), len(want.Keys))
		}
		for i, k := range want.Keys {
			if u.GroupKeys[i] != k || math.Abs(u.Sums["Sales"][i]-want.Values[i]) > 1e-9 {
				t.Errorf("%s[%s]: %v vs %v", city, k, u.Sums["Sales"][i], want.Values[i])
			}
		}
	}
	// One scan must have answered all four siblings.
	if e.Meter().ExecutedQueries() != 1 {
		t.Errorf("augmented query executed %d scans", e.Meter().ExecutedQueries())
	}
	// Subsequent sibling basic queries are served by the cache.
	dsSF := anchor
	dsSF.Subspace = anchor.Subspace.With("City", "SF")
	if _, err := e.BasicQuery(dsSF); err != nil {
		t.Fatal(err)
	}
	if e.Meter().ExecutedQueries() != 1 {
		t.Error("prefetched sibling re-scanned")
	}
}

func TestAugmentedQueryRejectsBreakdownDim(t *testing.T) {
	tab := randomTable(5, 50)
	e := newEngine(t, tab, true)
	anchor := model.DataScope{Breakdown: "Month", Measure: model.Sum("Sales")}
	if _, err := e.AugmentedQuery(anchor, "Month"); err == nil {
		t.Error("augmenting by the breakdown dimension must fail")
	}
}

func TestImpact(t *testing.T) {
	b := dataset.NewBuilder("t", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "V", Kind: model.KindMeasure},
	})
	for i := 0; i < 8; i++ {
		city := "LA"
		if i >= 6 {
			city = "SF"
		}
		b.AddRow([]string{city, "M" + strconv.Itoa(i%3+1)}, []float64{1})
	}
	e := newEngine(t, b.Build(), true)
	if e.TotalImpact() != 8 {
		t.Fatalf("total impact = %v", e.TotalImpact())
	}
	imp, err := e.Impact(model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp-0.75) > 1e-12 {
		t.Errorf("impact(LA) = %v, want 0.75", imp)
	}
	if imp, _ := e.Impact(model.EmptySubspace); imp != 1 {
		t.Errorf("impact({*}) = %v", imp)
	}
}

func TestImpactWithSumMeasure(t *testing.T) {
	b := dataset.NewBuilder("t", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	b.AddRow([]string{"LA"}, []float64{30})
	b.AddRow([]string{"SF"}, []float64{70})
	e, err := New(b.Build(), Config{ImpactMeasure: model.Sum("V")})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := e.Impact(model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp-0.3) > 1e-12 {
		t.Errorf("impact = %v, want 0.3", imp)
	}
}

func TestNewRejectsNonAdditiveImpact(t *testing.T) {
	tab := randomTable(6, 20)
	if _, err := New(tab, Config{ImpactMeasure: model.Avg("Sales")}); err == nil {
		t.Error("AVG impact measure accepted")
	}
}

func TestNewRejectsUnknownMeasure(t *testing.T) {
	tab := randomTable(7, 20)
	if _, err := New(tab, Config{Measures: []model.Measure{model.Sum("Nope")}}); err == nil {
		t.Error("unknown measure column accepted")
	}
}

func TestCostModelCharges(t *testing.T) {
	tab := randomTable(8, 1000)
	m := &Meter{}
	e, err := New(tab, Config{
		Cost:  CostModel{PerQuery: 5, PerRow: 0.001, PerEvaluation: 0.2},
		Meter: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BasicQuery(model.DataScope{Breakdown: "Month", Measure: model.Sum("Sales")}); err != nil {
		t.Fatal(err)
	}
	want := 5 + 0.001*1000
	if math.Abs(m.Cost()-want) > 1e-6 {
		t.Errorf("cost = %v, want %v", m.Cost(), want)
	}
	e.ChargeEvaluation()
	if math.Abs(m.Cost()-want-0.2) > 1e-6 {
		t.Error("evaluation cost not charged")
	}
}

func TestUnitImpactConsistency(t *testing.T) {
	// Sum of sibling impacts equals the parent impact (additivity — the
	// property Equation 17 and the miner's Impact_HDS computation rely on).
	tab := randomTable(9, 300)
	e := newEngine(t, tab, true)
	u, err := e.Unit(model.EmptySubspace, "City")
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, c := range u.Counts {
		total += c
	}
	if total != float64(tab.Rows()) {
		t.Errorf("sibling impacts sum to %v of %d rows", total, tab.Rows())
	}
}

// TestScanCostMatchesMeteredCost verifies the analytic ScanCost equals what
// an executed scan is actually charged, filtered and unfiltered. The miner's
// canonical accounting relies on this equality to charge budgets without
// scanning.
func TestScanCostMatchesMeteredCost(t *testing.T) {
	tab := randomTable(11, 500)
	subspaces := []model.Subspace{
		model.EmptySubspace,
		model.EmptySubspace.With("City", "LA"),
		model.EmptySubspace.With("City", "SF").With("Style", "Condo"),
		model.EmptySubspace.With("City", "SD").With("Style", "1Story").With("Month", "Jan"),
	}
	for _, s := range subspaces {
		e := newEngine(t, tab, false) // disabled cache: every query scans
		want := e.ScanCost(s)
		before := e.Meter().Cost()
		if _, err := e.Unit(s, "Month"); err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		if got := e.Meter().Cost() - before; got != want {
			t.Errorf("subspace %q: ScanCost = %v, metered = %v", s.Key(), want, got)
		}
	}
}

// TestPlannedRowsFallbackMatchesReferenceScan covers the cost path of a
// substrate that is not a RowPlanner: the engine predicts its rows from the
// posting-set cardinalities alone, and the prediction must equal what the
// index-free ReferenceSubstrate meters from its brute-force per-filter counts
// — for 0 to 3 filters and for a value absent from its column. Equality also
// cross-checks every bitmap cardinality involved against a scan of the codes.
func TestPlannedRowsFallbackMatchesReferenceScan(t *testing.T) {
	tab := randomTable(13, 500)
	subspaces := []model.Subspace{
		model.EmptySubspace,
		model.EmptySubspace.With("City", "LA"),
		model.EmptySubspace.With("City", "SF").With("Style", "Condo"),
		model.EmptySubspace.With("City", "SD").With("Style", "1Story").With("Month", "Jan"),
		model.EmptySubspace.With("City", "Atlantis"),
		model.EmptySubspace.With("City", "SJ").With("Style", "Igloo"),
	}
	for _, s := range subspaces {
		e, err := New(tab, Config{
			QueryCache: cache.NewQueryCache(false), // every query scans
			Substrate:  NewReferenceSubstrate(tab, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.sub.(RowPlanner); ok {
			t.Fatal("ReferenceSubstrate became a RowPlanner; the fallback is no longer under test")
		}
		want := e.ScanCost(s)
		if _, err := e.Unit(s, "Month"); err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		if got := e.Meter().Cost(); got != want {
			t.Errorf("subspace %q: ScanCost = %v, reference scan metered %v", s.Key(), want, got)
		}
	}
}

// TestMaterializePathsAreQuiet verifies the Materialize*/ImpactUnmetered
// paths touch neither the meter nor the cache hit/miss counters, while still
// caching their scans.
func TestMaterializePathsAreQuiet(t *testing.T) {
	tab := randomTable(12, 400)
	e := newEngine(t, tab, true)
	sub := model.EmptySubspace.With("City", "LA")

	if _, err := e.MaterializeUnit(sub, "Month"); err != nil {
		t.Fatal(err)
	}
	ds := model.DataScope{Subspace: sub, Breakdown: "Style", Measure: model.Sum("Sales")}
	if _, err := e.MaterializeBasic(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MaterializeAugmented(
		model.DataScope{Subspace: sub, Breakdown: "Style", Measure: model.Sum("Sales")}, "Month"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ImpactUnmetered(sub); err != nil {
		t.Fatal(err)
	}

	m := e.Meter()
	if m.Cost() != 0 || m.ExecutedQueries() != 0 || m.ServedQueries() != 0 || m.AugmentedQueries() != 0 {
		t.Errorf("quiet paths charged the meter: cost=%v exec=%d served=%d aug=%d",
			m.Cost(), m.ExecutedQueries(), m.ServedQueries(), m.AugmentedQueries())
	}
	st := e.QueryCache().Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("quiet paths touched cache counters: %+v", st)
	}
	if st.Entries == 0 {
		t.Error("quiet paths did not populate the cache")
	}
}

// TestMaterializeMatchesMeteredResults verifies quiet and metered paths
// return identical data.
func TestMaterializeMatchesMeteredResults(t *testing.T) {
	tab := randomTable(13, 300)
	quiet := newEngine(t, tab, true)
	metered := newEngine(t, tab, true)
	sub := model.EmptySubspace.With("Style", "Condo")
	ds := model.DataScope{Subspace: sub, Breakdown: "Month", Measure: model.Avg("Profit")}

	a, err := quiet.MaterializeBasic(ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := metered.BasicQuery(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Keys) != len(b.Keys) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Keys), len(b.Keys))
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Values[i] != b.Values[i] {
			t.Errorf("group %d: (%s, %v) vs (%s, %v)", i, a.Keys[i], a.Values[i], b.Keys[i], b.Values[i])
		}
	}

	ia, pa, err := quiet.ImpactUnmetered(sub)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := metered.Impact(sub)
	if err != nil {
		t.Fatal(err)
	}
	if ia != ib {
		t.Errorf("impact: quiet %v vs metered %v", ia, ib)
	}
	if pa == nil || pa.Cost != quiet.ScanCost(sub) {
		t.Errorf("impact probe = %+v", pa)
	}
}

// TestUnitSingleFlight verifies that concurrent metered misses on one unit
// coalesce: exactly one scan executes and is charged, the rest are served.
func TestUnitSingleFlight(t *testing.T) {
	tab := randomTable(14, 2000)
	e := newEngine(t, tab, true)
	sub := model.EmptySubspace.With("City", "SJ")

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Unit(sub, "Month"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	m := e.Meter()
	if m.ExecutedQueries() != 1 {
		t.Errorf("executed = %d, want 1 (single-flight)", m.ExecutedQueries())
	}
	if m.ExecutedQueries()+m.ServedQueries() != n {
		t.Errorf("executed+served = %d, want %d", m.ExecutedQueries()+m.ServedQueries(), n)
	}
	if want := e.ScanCost(sub); m.Cost() != want {
		t.Errorf("cost = %v, want %v (one scan)", m.Cost(), want)
	}
}

// TestAugmentedSingleFlightAccounting checks the augmented-scan accounting
// invariant under concurrency: every call is either the leader of a scan
// (executed+augmented) or a follower of a concurrent one (served), and cost
// equals exactly the executed scans. Calls that do not overlap in time scan
// again (an augmented query has no cache short-circuit, as in the paper), so
// only the sum — not executed == 1 — is timing-independent.
func TestAugmentedSingleFlightAccounting(t *testing.T) {
	tab := randomTable(15, 2000)
	e := newEngine(t, tab, true)
	ds := model.DataScope{
		Subspace:  model.EmptySubspace.With("City", "LA"),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.AugmentedQuery(ds, "Style"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	m := e.Meter()
	if m.ExecutedQueries() < 1 || m.ExecutedQueries() != m.AugmentedQueries() {
		t.Errorf("executed = %d augmented = %d", m.ExecutedQueries(), m.AugmentedQueries())
	}
	if m.ExecutedQueries()+m.ServedQueries() != n {
		t.Errorf("executed+served = %d, want %d", m.ExecutedQueries()+m.ServedQueries(), n)
	}
	base := ds.Subspace.Without("Style")
	if want := float64(m.ExecutedQueries()) * e.ScanCost(base); m.Cost() != want {
		t.Errorf("cost = %v, want %v (%d scans)", m.Cost(), want, m.ExecutedQueries())
	}
}
