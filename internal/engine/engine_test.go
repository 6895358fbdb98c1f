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
	"metainsight/internal/obs"
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

func newEngine(t *testing.T, tab *dataset.Table) *Engine {
	t.Helper()
	// Tests query MIN/MAX ad hoc, so declare them over every measure column;
	// production callers declare only what registered evaluators need.
	var extras []model.Measure
	for _, mc := range tab.MeasureColumns() {
		extras = append(extras, model.Min(mc.Name), model.Max(mc.Name))
	}
	e, err := New(tab, Config{
		ExtraMeasures: extras,
		Observer:      obs.New(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// physicalScans is the number of scans an engine built by newEngine has
// executed, unit and augmented alike: the observer's engine.physical.scans.
func physicalScans(e *Engine) int64 {
	return e.obs.Snapshot().Counters["engine.physical.scans"]
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
	e := newEngine(t, tab)
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
	e := newEngine(t, b.Build())
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
	e := newEngine(t, b.Build())
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
	e := newEngine(t, tab)
	ds := model.DataScope{Breakdown: "Month", Measure: model.Sum("Sales")}
	if _, err := e.BasicQuery(ds); err != nil {
		t.Fatal(err)
	}
	// Same unit, different measure: must be a cache hit.
	ds2 := ds
	ds2.Measure = model.Avg("Profit")
	if _, err := e.BasicQuery(ds2); err != nil {
		t.Fatal(err)
	}
	if n := physicalScans(e); n != 1 {
		t.Errorf("%d scans, want 1: the measure variant re-scanned despite the cache", n)
	}
}

func TestAugmentedQueryMatchesPerSiblingBasics(t *testing.T) {
	tab := randomTable(4, 400)
	// Reference engine without cache interference.
	ref := newEngine(t, tab)
	e := newEngine(t, tab)
	anchor := model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}
	city, month := tab.DimensionIndex("City"), tab.DimensionIndex("Month")
	units := e.MaterializeAugmentedAt(e.Intern(anchor.Subspace.Without("City")), month, city)
	for _, city := range []string{"LA", "SF", "SD", "SJ"} {
		u := units[tab.Dimensions()[tab.DimensionIndex("City")].Code(city)]
		if u.Len() == 0 {
			t.Fatalf("missing sibling unit for %s", city)
		}
		ds := anchor
		ds.Subspace = anchor.Subspace.With("City", city)
		want, err := ref.BasicQuery(ds)
		if err != nil {
			t.Fatal(err)
		}
		nu := u.Named(tab.Dimensions()[month].Domain())
		if len(nu.GroupKeys) != len(want.Keys) {
			t.Fatalf("%s: group count %d vs %d", city, len(nu.GroupKeys), len(want.Keys))
		}
		for i, k := range want.Keys {
			if nu.GroupKeys[i] != k || math.Abs(nu.Sums["Sales"][i]-want.Values[i]) > 1e-9 {
				t.Errorf("%s[%s]: %v vs %v", city, k, nu.Sums["Sales"][i], want.Values[i])
			}
		}
	}
	// One scan must have answered all four siblings.
	if n := physicalScans(e); n != 1 {
		t.Errorf("augmented query executed %d scans", n)
	}
	// Subsequent sibling basic queries are served by the cache.
	dsSF := anchor
	dsSF.Subspace = anchor.Subspace.With("City", "SF")
	if _, err := e.BasicQuery(dsSF); err != nil {
		t.Fatal(err)
	}
	if physicalScans(e) != 1 {
		t.Error("prefetched sibling re-scanned")
	}
}

// TestAugmentedQueryRejectsBreakdownDim: augmenting by the breakdown itself
// or by a dimension the table lacks is a caller's bug, and panics rather
// than scan.
func TestAugmentedQueryRejectsBreakdownDim(t *testing.T) {
	tab := randomTable(5, 50)
	e := newEngine(t, tab)
	h, month := e.Intern(model.EmptySubspace), tab.DimensionIndex("Month")
	for ext, what := range map[int]string{month: "the breakdown dimension", len(tab.Dimensions()): "an unknown dimension"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("augmenting by %s must panic", what)
				}
			}()
			e.MaterializeAugmentedAt(h, month, ext)
		}()
	}
	if n := physicalScans(e); n != 0 {
		t.Errorf("%d scans, want none", n)
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
	e := newEngine(t, b.Build())
	if e.TotalImpact() != 8 {
		t.Fatalf("total impact = %v", e.TotalImpact())
	}
	imp, probe := e.ImpactAt(e.Intern(model.NewSubspace(model.Filter{Dim: "City", Value: "LA"})))
	if math.Abs(imp-0.75) > 1e-12 {
		t.Errorf("impact(LA) = %v, want 0.75", imp)
	}
	if _, cached := e.UnitOf(probe.Fallback); probe.Handle == nil || probe.Cost != e.ScanCostAt(probe.Handle) || !cached {
		t.Errorf("impact probe = %+v (fallback unit cached: %v)", probe, cached)
	}
	if imp, probe := e.ImpactAt(e.Intern(model.EmptySubspace)); imp != 1 || probe != (ImpactProbe{}) {
		t.Errorf("impact({*}) = %v, probe %+v", imp, probe)
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
	imp, _ := e.ImpactAt(e.Intern(model.NewSubspace(model.Filter{Dim: "City", Value: "LA"})))
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

// TestNewRejectsNonFiniteImpact pins that a SUM impact measure whose
// dataset total is NaN or infinite — a non-finite cell, or finite cells whose
// sum overflows — fails engine construction instead of mining nothing.
func TestNewRejectsNonFiniteImpact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells map[int]float64
	}{
		{"nan", map[int]float64{17: math.NaN()}},
		{"inf", map[int]float64{17: math.Inf(1)}},
		{"overflow", map[int]float64{17: 1e308, 18: 1e308}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := dataset.NewBuilder("impact", []model.Field{
				{Name: "A", Kind: model.KindCategorical},
				{Name: "B", Kind: model.KindCategorical},
				{Name: "M", Kind: model.KindMeasure},
			})
			for i := 0; i < 400; i++ {
				v, ok := tc.cells[i]
				if !ok {
					v = float64(i%7 + 1)
				}
				b.AddRow([]string{strconv.Itoa(i % 5), strconv.Itoa(i % 4)}, []float64{v})
			}
			tab := b.Build()
			if _, err := New(tab, Config{ImpactMeasure: model.Sum("M")}); err == nil {
				t.Fatal("non-finite impact total accepted")
			}
			if _, err := New(tab, Config{}); err != nil {
				t.Fatalf("COUNT impact over the same table rejected: %v", err)
			}
		})
	}
}

// TestNewRejectsUnknownMeasure: a measure set, extra measure or impact
// measure over a column the table lacks is refused — COUNT included, whose
// column the scan ignores, since COUNT(x) and COUNT(*) would otherwise mine
// one measure under two keys — and a refused engine gives no measure of its
// configuration a session ordinal, so unknown names cannot fill the
// interner's measure table.
func TestNewRejectsUnknownMeasure(t *testing.T) {
	tab := randomTable(7, 20)
	in := NewInterner(tab)
	for _, cfg := range []Config{
		{Measures: []model.Measure{model.Sum("Nope")}},
		{Measures: []model.Measure{model.Count("Nope"), model.Sum("Sales")}},
		{Measures: []model.Measure{model.Count("City")}}, // a dimension, not a measure column
		{ExtraMeasures: []model.Measure{model.Max("Nope")}},
		{ImpactMeasure: model.Count("Nope")},
	} {
		cfg.Interner = in
		if _, err := New(tab, cfg); err == nil {
			t.Errorf("%+v: unknown measure column accepted", cfg)
		}
	}
	if n := len(in.measureKeys); n != 0 {
		t.Errorf("refused engines named %d measures: %q", n, in.measureKeys)
	}
	e, err := New(tab, Config{Interner: in, Measures: []model.Measure{model.Count("Sales"), model.Count("*")}})
	if err != nil {
		t.Fatalf("COUNT over a measure column refused: %v", err)
	}
	if _, ok := e.MeasureID(model.Count("Nope")); ok || len(in.measureKeys) != 2 {
		t.Errorf("MeasureID gave COUNT(Nope) an ordinal: %q", in.measureKeys)
	}
}

// TestCostModelCharges pins the cost model: an unfiltered scan costs the
// per-query overhead plus the per-row cost of every table row, an evaluation
// EvaluationCost.
func TestCostModelCharges(t *testing.T) {
	tab := randomTable(8, 1000)
	e := newEngine(t, tab)
	if got, want := e.ScanCostAt(e.Intern(model.EmptySubspace)), 5+0.0005*1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("scan cost = %v, want %v", got, want)
	}
	if EvaluationCost != 0.2 {
		t.Errorf("evaluation cost = %v, want 0.2", EvaluationCost)
	}
}

func TestUnitImpactConsistency(t *testing.T) {
	// Sum of sibling impacts equals the parent impact (additivity — the
	// property Equation 17 and the miner's Impact_HDS computation rely on).
	tab := randomTable(9, 300)
	e := newEngine(t, tab)
	u := e.MaterializeUnitAt(e.Intern(model.EmptySubspace), tab.DimensionIndex("City"), nil)
	total := 0.0
	for _, c := range u.Counts() {
		total += c
	}
	if total != float64(tab.Rows()) {
		t.Errorf("sibling impacts sum to %v of %d rows", total, tab.Rows())
	}
}

// scanCostOf is the cost model applied to the rows a substrate scan
// reported: the charge ScanCostAt must predict without scanning.
func scanCostOf(e *Engine, s model.Subspace) float64 {
	_, rows := e.sub.ScanUnitAt(e.Intern(s), e.tab.DimensionIndex("Month"))
	return perQuery + perRow*float64(rows)
}

// TestScanCostMatchesMeteredCost verifies ScanCostAt equals, bit for bit, the
// cost model applied to the rows Substrate.ScanUnitAt reports, filtered and
// unfiltered. The miner's canonical accounting and QuickInsight rely on this
// equality to charge scans without counting rows themselves.
func TestScanCostMatchesMeteredCost(t *testing.T) {
	tab := randomTable(11, 500)
	subspaces := []model.Subspace{
		model.EmptySubspace,
		model.EmptySubspace.With("City", "LA"),
		model.EmptySubspace.With("City", "SF").With("Style", "Condo"),
		model.EmptySubspace.With("City", "SD").With("Style", "1Story").With("Month", "Jan"),
	}
	for _, s := range subspaces {
		e := newEngine(t, tab)
		if got, want := e.ScanCostAt(e.Intern(s)), scanCostOf(e, s); got != want {
			t.Errorf("subspace %q: ScanCostAt = %v, scan reports rows costing %v", s.Key(), got, want)
		}
	}
}

// TestPlannedRowCostMatchesReference covers the cost of a substrate other
// than the default one: ScanCostAt charges the rows of the subspace's plan
// whichever substrate scans, and that must equal the cost of the rows the
// index-free ReferenceSubstrate reports from its brute-force filter checks —
// for 0 to 3 filters and for values absent from their column. Equality also
// cross-checks every posting intersection involved against a scan of the
// codes.
func TestPlannedRowCostMatchesReference(t *testing.T) {
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
		e, err := New(tab, Config{Substrate: NewReferenceSubstrate(tab, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.ScanCostAt(e.Intern(s)), scanCostOf(e, s); got != want {
			t.Errorf("subspace %q: ScanCostAt = %v, reference scan's rows cost %v", s.Key(), got, want)
		}
	}
}

// TestMaterializePathsAreQuiet verifies that every engine path — the unit,
// augmented, impact, peek and value-form reads, cached or scanned — caches
// what it scans. The engine holds no ledger, so none of them can charge.
func TestMaterializePathsAreQuiet(t *testing.T) {
	tab := randomTable(12, 400)
	e := newEngine(t, tab)
	sub := model.EmptySubspace.With("City", "LA")
	h := e.Intern(sub)
	month, style := tab.DimensionIndex("Month"), tab.DimensionIndex("Style")
	for i := 0; i < 2; i++ { // a miss, then a hit
		e.MaterializeUnitAt(h, month, nil)
		if _, err := e.BasicQuery(model.DataScope{Subspace: sub, Breakdown: "Style", Measure: model.Sum("Sales")}); err != nil {
			t.Fatal(err)
		}
		e.MaterializeAugmentedAt(e.Intern(model.EmptySubspace), style, month)
		e.ImpactAt(e.Intern(model.EmptySubspace.With("Style", "Condo")))
		e.PeekUnitAt(h, style)
		e.ScanCostAt(h)
	}
	if st := e.QueryCache().Stats(); st.Entries == 0 {
		t.Error("engine paths did not populate the cache")
	}
	if physicalScans(e) == 0 {
		t.Error("nothing was scanned: the paths were not exercised")
	}
}

// TestUnitSingleFlight verifies that concurrent misses on one unit coalesce:
// exactly one scan executes, and every caller gets its unit.
func TestUnitSingleFlight(t *testing.T) {
	tab := randomTable(14, 2000)
	e := newEngine(t, tab)
	h, month := e.Intern(model.EmptySubspace.With("City", "SJ")), tab.DimensionIndex("Month")

	const n = 16
	units := make([]cache.Unit, n)
	var wg sync.WaitGroup
	for i := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			units[i] = e.MaterializeUnitAt(h, month, nil)
		}()
	}
	wg.Wait()

	if n := physicalScans(e); n != 1 {
		t.Errorf("%d scans, want 1 (single-flight)", n)
	}
	if units[0].Len() == 0 {
		t.Fatal("vacuous: the unit is empty")
	}
	for i, u := range units {
		if &u.Data[0] != &units[0].Data[0] {
			t.Errorf("caller %d got a different unit", i)
		}
	}
}

// TestAugmentedSingleFlightAccounting checks the augmented path's at-most-once
// guarantee under concurrency: however many callers race for one augmented
// query, and whether or not their calls overlap in time, the table is scanned
// exactly once — concurrent callers follow the leader's flight, later ones
// are served from the pair memo — and nothing is charged.
func TestAugmentedSingleFlightAccounting(t *testing.T) {
	tab := randomTable(15, 2000)
	e := newEngine(t, tab)
	base := e.Intern(model.EmptySubspace)
	month, style := tab.DimensionIndex("Month"), tab.DimensionIndex("Style")

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.MaterializeAugmentedAt(base, month, style)
		}()
	}
	wg.Wait()

	if n := physicalScans(e); n != 1 {
		t.Errorf("%d scans, want 1", n)
	}
	if n := e.obs.Snapshot().Counters["engine.physical.augmented_scans"]; n != 1 {
		t.Errorf("%d augmented scans, want 1", n)
	}
}
