package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

// unitJSON canonicalizes a unit for byte comparison. encoding/json sorts map
// keys, so equal units marshal to equal bytes; float64 formatting is exact
// (shortest round-trip), so any bit difference in an aggregate shows up.
func unitJSON(t *testing.T, v any) string {
	t.Helper()
	switch x := v.(type) {
	case cache.Unit:
		v = namedByCode(x)
	case []cache.Unit:
		named := make([]*cache.NamedUnit, len(x))
		for i, u := range x {
			if u.Len() > 0 {
				named[i] = namedByCode(u)
			}
		}
		v = named
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// namedByCode renders u with every group key its dictionary code in
// decimal, so units compare by content whatever their arrays' capacity.
func namedByCode(u cache.Unit) *cache.NamedUnit {
	var domain []string
	for _, code := range u.Codes {
		for len(domain) <= int(code) {
			domain = append(domain, strconv.Itoa(len(domain)))
		}
	}
	return u.Named(domain)
}

// diffSubstrates enumerates every physical configuration of the vectorized
// substrate the differential test compares against the reference: scan
// parallelism 1/2/8, all with a small morsel size so multi-morsel merging
// happens on test-sized tables. Each substrate pools its accumulators, and
// every arm scans many times, so a pooled accumulator that leaked state from
// one scan into the next would show as a mismatch.
func diffSubstrates(tab *dataset.Table, minMax map[string]bool) map[string]*ColumnarSubstrate {
	subs := make(map[string]*ColumnarSubstrate)
	for _, par := range []int{1, 2, 8} {
		subs[fmt.Sprintf("par%d", par)] = newColumnarSubstrate(tab, columnarConfig{par: par, morsel: 64, minMax: minMax})
	}
	return subs
}

// checkScannedRows asserts that an arm's metered row count is exactly the
// number of matching rows (the sum of the reference units' Counts): every
// plan drives the exact intersection of its filters' posting sets.
func checkScannedRows(t *testing.T, trial int, name string, got, matching int) {
	t.Helper()
	if got != matching {
		t.Fatalf("trial %d %s: scanned %d rows, exactly %d match", trial, name, got, matching)
	}
}

// randomSubspace draws a subspace of the given filter depth; values are drawn
// from the dimension's domain, or occasionally set to an absent value to hit
// the no-matching-rows plan.
func randomSubspace(r *rand.Rand, tab *dataset.Table, depth int) model.Subspace {
	dims := tab.DimensionNames()
	sub := model.EmptySubspace
	for d := 0; d < depth; d++ {
		dim := tab.Dimension(dims[r.Intn(len(dims))])
		if sub.Has(dim.Name) {
			continue
		}
		if r.Intn(10) == 0 {
			sub = sub.With(dim.Name, "___absent___")
		} else {
			sub = sub.With(dim.Name, dim.Domain()[r.Intn(dim.Cardinality())])
		}
	}
	return sub
}

// diffTables returns the row layouts the differential tests scan: the
// uniformly random table (runs ≈ 1 row long) and three clustered ones whose
// filtered scans fold long runs — cross-product row order as
// workload.buildTable emits it, the random table sorted by one dimension,
// and sections of single-row runs alternating with sections of runs up to
// 200 rows long, so that runs straddle the 64-row morsel boundaries and
// both run shapes occur within one scan. All share randomTable's schema and
// integer-valued measures.
func diffTables(seed int64) map[string]*dataset.Table {
	random := randomTable(seed, 700)
	dims := random.Dimensions()
	r := rand.New(rand.NewSource(seed))
	row := func(b *dataset.Builder, city, style, month int) {
		b.AddRow([]string{dims[0].Value(city), dims[1].Value(style), dims[2].Value(month)},
			[]float64{math.Floor(r.Float64() * 1000), math.Floor(r.Float64()*200) - 100})
	}

	cross := dataset.NewBuilder("cross", random.Fields())
	for city := 0; city < dims[0].Cardinality(); city++ {
		for style := 0; style < dims[1].Cardinality(); style++ {
			for month := 0; month < dims[2].Cardinality(); month++ {
				for rep := 5 + r.Intn(40); rep > 0; rep-- {
					row(cross, city, style, month)
				}
			}
		}
	}

	order := make([]int, random.Rows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return dims[0].CodeAt(order[i]) < dims[0].CodeAt(order[j]) })

	alternating := dataset.NewBuilder("alternating", random.Fields())
	for section := 0; section < 6; section++ {
		for i := 0; i < 500; i++ {
			row(alternating, r.Intn(dims[0].Cardinality()), r.Intn(dims[1].Cardinality()), r.Intn(dims[2].Cardinality()))
		}
		for n := 0; n < 500; {
			city, style, month := r.Intn(dims[0].Cardinality()), r.Intn(dims[1].Cardinality()), r.Intn(dims[2].Cardinality())
			run := 1 + r.Intn(200)
			for i := 0; i < run; i++ {
				row(alternating, city, style, month)
			}
			n += run
		}
	}
	return map[string]*dataset.Table{
		"random":      random,
		"cross":       cross.Build(),
		"sorted":      permuteRows(random, order),
		"alternating": alternating.Build(),
	}
}

// TestDifferentialScanUnit proves every physical configuration of the
// vectorized substrate produces byte-identical units to the retained naive
// reference scan, on every row layout of diffTables. The tables' measures are
// integer-valued, so sums are exact and the comparison is insensitive to the
// (intentionally different) addition order of the morselized pipeline.
func TestDifferentialScanUnit(t *testing.T) {
	for layout, tab := range diffTables(41) {
		t.Run(layout, func(t *testing.T) { differentialScanUnit(t, tab) })
	}
}

func differentialScanUnit(t *testing.T, tab *dataset.Table) {
	for _, minMax := range []map[string]bool{nil, {"Sales": true}, {}} {
		ref := NewReferenceSubstrate(tab, minMax)
		subs := diffSubstrates(tab, minMax)
		in := NewInterner(tab)
		r := rand.New(rand.NewSource(5))
		dims := tab.DimensionNames()
		for trial := 0; trial < 60; trial++ {
			sub := randomSubspace(r, tab, r.Intn(4))
			bd := r.Intn(len(dims))
			breakdown := dims[bd]
			if sub.Has(breakdown) {
				continue
			}
			h := in.Intern(sub)
			wantU, _ := ref.ScanUnitAt(h, bd)
			want := unitJSON(t, wantU)
			matching := 0
			for _, n := range wantU.Counts() {
				matching += int(n)
			}
			for name, c := range subs {
				gotU, gotRows := c.ScanUnitAt(h, bd)
				if got := unitJSON(t, gotU); got != want {
					t.Fatalf("trial %d %s [%s ⟂ %s]: unit mismatch\n got %s\nwant %s",
						trial, name, sub.Key(), breakdown, got, want)
				}
				checkScannedRows(t, trial, name, gotRows, matching)
				// The plan ScanCostAt charges must count exactly these rows.
				if pr := h.plan(nil).rows; pr != gotRows {
					t.Fatalf("trial %d %s: planned %d rows != scanned %d", trial, name, pr, gotRows)
				}
			}
		}
	}
}

// TestDifferentialScanAugmented is TestDifferentialScanUnit for the augmented
// scan path, including the per-ext-value unit splitting.
func TestDifferentialScanAugmented(t *testing.T) {
	for layout, tab := range diffTables(43) {
		t.Run(layout, func(t *testing.T) { differentialScanAugmented(t, tab) })
	}
}

func differentialScanAugmented(t *testing.T, tab *dataset.Table) {
	ref := NewReferenceSubstrate(tab, nil)
	subs := diffSubstrates(tab, nil)
	in := NewInterner(tab)
	r := rand.New(rand.NewSource(9))
	dims := tab.DimensionNames()
	for trial := 0; trial < 40; trial++ {
		sub := randomSubspace(r, tab, r.Intn(3))
		bd, xd := r.Intn(len(dims)), r.Intn(len(dims))
		breakdown, ext := dims[bd], dims[xd]
		if ext == breakdown || sub.Has(breakdown) {
			continue
		}
		base := sub.Without(ext)
		h := in.Intern(base)
		wantUnits, _ := ref.ScanAugmentedAt(h, bd, xd)
		want := unitJSON(t, wantUnits)
		matching := 0
		for _, u := range wantUnits {
			for _, n := range u.Counts() {
				matching += int(n)
			}
		}
		for name, c := range subs {
			gotUnits, gotRows := c.ScanAugmentedAt(h, bd, xd)
			if got := unitJSON(t, gotUnits); got != want {
				t.Fatalf("trial %d %s [%s ⟂ %s +%s]: augmented mismatch\n got %s\nwant %s",
					trial, name, base.Key(), breakdown, ext, got, want)
			}
			checkScannedRows(t, trial, name, gotRows, matching)
			if pr := h.plan(nil).rows; pr != gotRows {
				t.Fatalf("trial %d %s: planned %d rows != scanned %d", trial, name, pr, gotRows)
			}
		}
	}
}

// TestDifferentialFractionalParallelism checks bit-identity where it is
// actually promised for arbitrary floats: for a fixed morsel size, every
// parallelism produces the same bits, because morsel boundaries and merge
// order are fixed.
func TestDifferentialFractionalParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := dataset.NewBuilder("frac", []model.Field{
		{Name: "G", Kind: model.KindCategorical},
		{Name: "H", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	for i := 0; i < 1000; i++ {
		b.AddRow([]string{
			fmt.Sprintf("g%d", r.Intn(7)),
			fmt.Sprintf("h%d", r.Intn(5)),
		}, []float64{r.NormFloat64() * 1e3})
	}
	tab := b.Build()

	var want string
	for _, par := range []int{1, 0, 2, 3, 8} {
		c := newColumnarSubstrate(tab, columnarConfig{par: par, morsel: 64})
		sub := model.NewSubspace(model.Filter{Dim: "H", Value: "h1"})
		u, _ := c.ScanUnitAt(c.in.Intern(sub), tab.DimensionIndex("G"))
		got := unitJSON(t, u)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("par %d: fractional bits differ\n got %s\nwant %s", par, got, want)
		}
	}
}

// TestParallelScanManyMorsels drives the parallel path where its hand-overs
// are densest: hundreds of tiny morsels over eight goroutines, several scans
// at once on one substrate (so partials circulate through the shared pool),
// fractional values (so any merge out of morsel order would change bits).
// Every scan must equal the sequential one byte for byte; under -race this is
// also the check on the reorder ring and the spare list.
func TestParallelScanManyMorsels(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	b := dataset.NewBuilder("frac", []model.Field{
		{Name: "G", Kind: model.KindCategorical},
		{Name: "H", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	for i := 0; i < 6000; i++ {
		b.AddRow([]string{fmt.Sprintf("g%d", r.Intn(9)), fmt.Sprintf("h%d", r.Intn(4))},
			[]float64{r.NormFloat64() * 1e3})
	}
	tab := b.Build()
	seq := newColumnarSubstrate(tab, columnarConfig{par: 1, morsel: 16})
	par := newColumnarSubstrate(tab, columnarConfig{par: 8, morsel: 16})
	in := NewInterner(tab)
	root, h1 := in.Intern(model.EmptySubspace), in.Intern(model.NewSubspace(model.Filter{Dim: "H", Value: "h1"}))
	g, hd := tab.DimensionIndex("G"), tab.DimensionIndex("H")
	scans := []func(c *ColumnarSubstrate) any{
		func(c *ColumnarSubstrate) any { u, _ := c.ScanUnitAt(root, g); return u },
		func(c *ColumnarSubstrate) any { u, _ := c.ScanUnitAt(h1, g); return u },
		func(c *ColumnarSubstrate) any { u, _ := c.ScanAugmentedAt(root, g, hd); return u },
	}
	want := make([]string, len(scans))
	for i, scan := range scans {
		want[i] = unitJSON(t, scan(seq))
	}
	const goroutines, rounds = 4, 5
	got := make([][]any, goroutines) // got[g] holds that goroutine's scans, in order
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for _, scan := range scans {
					got[g] = append(got[g], scan(par))
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for j, u := range got[g] {
			if unitJSON(t, u) != want[j%len(scans)] {
				t.Fatalf("goroutine %d, scan %d differs from the sequential one", g, j)
			}
		}
	}
}

// TestScanParallelismResolution pins the one place scan parallelism is
// resolved: 0 (the default) is GOMAXPROCS, 1 is the sequential branch of
// scan(), n > 1 is n, and a negative n is GOMAXPROCS too.
func TestScanParallelismResolution(t *testing.T) {
	tab := randomTable(47, 200)
	procs := runtime.GOMAXPROCS(0)
	if got := NewColumnarSubstrate(tab).par; got != procs {
		t.Errorf("default parallelism %d, GOMAXPROCS is %d", got, procs)
	}
	for n, want := range map[int]int{-2: procs, 0: procs, 1: 1, 2: 2, 7: 7} {
		if got := newColumnarSubstrate(tab, columnarConfig{par: n}).par; got != want {
			t.Errorf("scan parallelism %d resolved to %d, want %d", n, got, want)
		}
	}
}

// TestDifferentialEdgeCases pins the plan edge semantics: an absent filter
// value scans zero rows and yields an empty unit; a filter matching no rows
// on one ext value yields no unit for that value.
func TestDifferentialEdgeCases(t *testing.T) {
	tab := randomTable(47, 200)
	c := newColumnarSubstrate(tab, columnarConfig{morsel: 32})
	ref := NewReferenceSubstrate(tab, nil)

	h := c.in.Intern(model.NewSubspace(model.Filter{Dim: "City", Value: "Atlantis"}))
	month := tab.DimensionIndex("Month")
	u, rows := c.ScanUnitAt(h, month)
	if rows != 0 || u.Len() != 0 {
		t.Fatalf("absent value: rows=%d groups=%d, want 0/0", rows, u.Len())
	}
	ru, rrows := ref.ScanUnitAt(h, month)
	if rrows != 0 || unitJSON(t, u) != unitJSON(t, ru) {
		t.Fatalf("absent value: reference disagrees (rows=%d)", rrows)
	}
	if pr := h.plan(nil).rows; pr != 0 {
		t.Fatalf("absent value: planned %d rows, want 0", pr)
	}

	// Multi-filter subspace whose intersection is empty but whose individual
	// posting lists are not.
	b := dataset.NewBuilder("e", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	b.AddRow([]string{"a1", "b1"}, []float64{1})
	b.AddRow([]string{"a2", "b2"}, []float64{2})
	tab2 := b.Build()
	c2 := NewColumnarSubstrate(tab2)
	disjoint := c2.in.Intern(model.NewSubspace(
		model.Filter{Dim: "A", Value: "a1"},
		model.Filter{Dim: "B", Value: "b2"},
	))
	u2, rows2 := c2.ScanUnitAt(disjoint, tab2.DimensionIndex("A"))
	if rows2 != 0 || u2.Len() != 0 {
		t.Fatalf("disjoint filters: rows=%d groups=%v, want 0/none", rows2, u2.Codes)
	}
	ref2 := NewReferenceSubstrate(tab2, nil)
	ru2, _ := ref2.ScanUnitAt(disjoint, tab2.DimensionIndex("A"))
	if unitJSON(t, u2) != unitJSON(t, ru2) {
		t.Fatal("disjoint unit differs from reference")
	}
}

// permuteRows rebuilds tab with the source's row order[i] as its row i.
func permuteRows(tab *dataset.Table, order []int) *dataset.Table {
	b := dataset.NewBuilder(tab.Name(), tab.Fields())
	dims := make([]string, len(tab.Dimensions()))
	vals := make([]float64, len(tab.MeasureColumns()))
	for _, r := range order {
		for i, d := range tab.Dimensions() {
			dims[i] = d.Value(int(d.CodeAt(r)))
		}
		for i, mc := range tab.MeasureColumns() {
			vals[i] = mc.At(r)
		}
		b.AddRow(dims, vals)
	}
	return b.Build()
}
