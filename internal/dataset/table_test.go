package dataset

import (
	"strings"
	"sync"
	"testing"

	"metainsight/internal/model"
)

func buildSalesTable(t *testing.T) *Table {
	t.Helper()
	b := NewBuilder("sales", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "Sales", Kind: model.KindMeasure},
	})
	rows := []struct {
		city, month string
		sales       float64
	}{
		{"LA", "Mar", 10}, {"LA", "Jan", 20}, {"SF", "Feb", 5},
		{"SF", "Jan", 7}, {"LA", "Feb", 30},
	}
	for _, r := range rows {
		b.AddRow([]string{r.city, r.month}, []float64{r.sales})
	}
	return b.Build()
}

func TestBuilderBasicShape(t *testing.T) {
	tab := buildSalesTable(t)
	if tab.Rows() != 5 || tab.Cols() != 3 || tab.Cells() != 15 {
		t.Fatalf("shape = %d rows %d cols %d cells", tab.Rows(), tab.Cols(), tab.Cells())
	}
	if tab.Name() != "sales" {
		t.Errorf("name = %q", tab.Name())
	}
}

func TestTemporalDomainOrdering(t *testing.T) {
	tab := buildSalesTable(t)
	months := tab.Dimension("Month").Domain()
	want := []string{"Jan", "Feb", "Mar"}
	for i, m := range want {
		if months[i] != m {
			t.Fatalf("month domain = %v, want %v", months, want)
		}
	}
}

func TestCategoricalDomainLexical(t *testing.T) {
	tab := buildSalesTable(t)
	cities := tab.Dimension("City").Domain()
	if cities[0] != "LA" || cities[1] != "SF" {
		t.Fatalf("city domain = %v", cities)
	}
}

func TestCodesRoundtrip(t *testing.T) {
	tab := buildSalesTable(t)
	col := tab.Dimension("Month")
	// Row 0 was ("LA","Mar",10); after the temporal re-sort its code must
	// still decode to "Mar".
	if got := col.Value(int(col.CodeAt(0))); got != "Mar" {
		t.Errorf("row 0 month = %q, want Mar", got)
	}
	if col.Code("Jan") != 0 {
		t.Errorf("Code(Jan) = %d", col.Code("Jan"))
	}
	if col.Code("Nope") != -1 {
		t.Errorf("Code of absent value should be -1")
	}
}

func TestValidate(t *testing.T) {
	tab := buildSalesTable(t)
	good := model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}
	if err := tab.Validate(good); err != nil {
		t.Errorf("valid scope rejected: %v", err)
	}
	cases := []model.DataScope{
		{Subspace: good.Subspace, Breakdown: "Nope", Measure: model.Sum("Sales")},
		{Subspace: model.NewSubspace(model.Filter{Dim: "Nope", Value: "x"}), Breakdown: "Month", Measure: model.Sum("Sales")},
		{Subspace: model.NewSubspace(model.Filter{Dim: "City", Value: "Chicago"}), Breakdown: "Month", Measure: model.Sum("Sales")},
		{Subspace: good.Subspace, Breakdown: "Month", Measure: model.Sum("Nope")},
		{Subspace: good.Subspace, Breakdown: "Month", Measure: model.Count("Nope")},
		{Subspace: good.Subspace, Breakdown: "Month", Measure: model.Count("City")},
	}
	for i, ds := range cases {
		if err := tab.Validate(ds); err == nil {
			t.Errorf("case %d: invalid scope accepted: %s", i, ds)
		}
	}
	for _, m := range []model.Measure{model.Count("*"), model.Count("Sales")} {
		if err := tab.Validate(model.DataScope{Subspace: good.Subspace, Breakdown: "Month", Measure: m}); err != nil {
			t.Errorf("%s rejected: %v", m, err)
		}
	}
}

func TestDefaultMeasures(t *testing.T) {
	tab := buildSalesTable(t)
	ms := tab.DefaultMeasures()
	if len(ms) != 2 || ms[0].Key() != "SUM(Sales)" || ms[1].Key() != "COUNT(*)" {
		t.Errorf("DefaultMeasures = %v", ms)
	}
}

func TestBuilderPanicsOnDuplicateField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("x", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "A", Kind: model.KindMeasure},
	})
}

func TestTemporalLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"Jan", "Feb", true},
		{"Dec", "Jan", false},
		{"January", "feb", true},
		{"Q1", "Q3", true},
		{"Q4", "Q2", false},
		{"2019", "2020", true},
		{"Mon", "Sunday", true},
		{"2020-01", "2020-02", true},
		{"W02", "W10", true},
		{"Week 2", "Week 10", true}, // numeric, not lexical
	}
	for _, c := range cases {
		if got := TemporalLess(c.a, c.b); got != c.want {
			t.Errorf("TemporalLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLooksTemporal(t *testing.T) {
	if !LooksTemporal([]string{"Jan", "Feb", "Mar"}) {
		t.Error("months should look temporal")
	}
	if !LooksTemporal([]string{"2018", "2019", "2020"}) {
		t.Error("years should look temporal")
	}
	if !LooksTemporal([]string{"2020-01-15", "2020-02-20"}) {
		t.Error("ISO dates should look temporal")
	}
	if LooksTemporal([]string{"LA", "SF"}) {
		t.Error("cities should not look temporal")
	}
	if LooksTemporal([]string{"12", "34"}) {
		t.Error("bare small integers are ambiguous, not temporal")
	}
}

func TestLoadCSVInference(t *testing.T) {
	csv := "City,Month,Sales\nLA,Jan,100\nSF,Feb,200\nLA,Mar,50\n"
	tab, err := LoadCSV(strings.NewReader(csv), LoadOptions{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := map[string]model.FieldKind{
		"City": model.KindCategorical, "Month": model.KindTemporal, "Sales": model.KindMeasure,
	}
	for _, f := range tab.Fields() {
		if wantKinds[f.Name] != f.Kind {
			t.Errorf("field %s inferred %v", f.Name, f.Kind)
		}
	}
	if tab.Rows() != 3 {
		t.Errorf("rows = %d", tab.Rows())
	}
	if got := tab.MeasureColumn("Sales").At(1); got != 200 {
		t.Errorf("Sales[1] = %v", got)
	}
}

func TestLoadCSVOverridesAndErrors(t *testing.T) {
	csv := "ID,Val\n1,10\n2,20\n"
	tab, err := LoadCSV(strings.NewReader(csv), LoadOptions{
		Name:          "t",
		KindOverrides: map[string]model.FieldKind{"ID": model.KindCategorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Dimension("ID") == nil {
		t.Error("override to categorical ignored")
	}
	if _, err := FromRecords("t", []string{"A", "B"}, [][]string{{"x"}}, LoadOptions{}); err == nil {
		t.Error("ragged record accepted")
	}
}

func TestLoadCSVNumberFormats(t *testing.T) {
	csv := "K,V\na,\"1,234.5\"\nb,-7\nc,\n"
	tab, err := LoadCSV(strings.NewReader(csv), LoadOptions{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	col := tab.MeasureColumn("V")
	if col.At(0) != 1234.5 || col.At(1) != -7 || col.At(2) != 0 {
		t.Errorf("parsed = %v %v %v", col.At(0), col.At(1), col.At(2))
	}
}

func TestMaxDimensionCardinalityDropsColumn(t *testing.T) {
	header := []string{"ID", "Group", "V"}
	var records [][]string
	for i := 0; i < 30; i++ {
		records = append(records, []string{string(rune('a' + i)), "g", "1"})
	}
	tab, err := FromRecords("t", header, records, LoadOptions{MaxDimensionCardinality: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Dimension("ID") != nil {
		t.Error("high-cardinality column not dropped")
	}
	if tab.Dimension("Group") == nil {
		t.Error("low-cardinality column wrongly dropped")
	}
}

func TestPostingsMatchScan(t *testing.T) {
	tab := buildSalesTable(t)
	for _, col := range tab.Dimensions() {
		for code := 0; code < col.Cardinality(); code++ {
			rows := col.Postings(code)
			// Reference: direct scan.
			var want []int32
			for r := 0; r < tab.Rows(); r++ {
				if col.CodeAt(r) == int32(code) {
					want = append(want, int32(r))
				}
			}
			if len(rows) != len(want) {
				t.Fatalf("%s[%s]: %d rows, want %d", col.Name, col.Value(code), len(rows), len(want))
			}
			for i := range want {
				if rows[i] != want[i] {
					t.Fatalf("%s[%s]: row %d = %d, want %d", col.Name, col.Value(code), i, rows[i], want[i])
				}
			}
		}
		if col.Postings(-1) != nil || col.Postings(col.Cardinality()) != nil {
			t.Error("out-of-range code should return nil")
		}
	}
}

func TestPostingsConcurrent(t *testing.T) {
	tab := buildSalesTable(t)
	col := tab.Dimension("City")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if len(col.Postings(0))+len(col.Postings(1)) != tab.Rows() {
					t.Error("postings do not partition the rows")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDeriveTemporal(t *testing.T) {
	b := NewBuilder("tx", []model.Field{
		{Name: "Store", Kind: model.KindCategorical},
		{Name: "Date", Kind: model.KindTemporal},
		{Name: "Amount", Kind: model.KindMeasure},
	})
	b.AddRow([]string{"A", "2019-01-15"}, []float64{10}) // Tuesday, Q1
	b.AddRow([]string{"A", "2019-04-07"}, []float64{20}) // Sunday, Q2
	b.AddRow([]string{"B", "2020-12-25"}, []float64{30}) // Friday, Q4
	tab, err := DeriveTemporal(b.Build(), "Date")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"Date Year":    {"2019", "2019", "2020"},
		"Date Quarter": {"Q1", "Q2", "Q4"},
		"Date Month":   {"Jan", "Apr", "Dec"},
		"Date Week":    {"W03", "W14", "W52"},
		"Date Weekday": {"Tue", "Sun", "Fri"},
	}
	for name, want := range cases {
		col := tab.Dimension(name)
		if col == nil {
			t.Fatalf("derived column %q missing", name)
		}
		if col.Kind != model.KindTemporal {
			t.Errorf("%q is %v, want temporal", name, col.Kind)
		}
		for r, w := range want {
			if got := col.Value(int(col.CodeAt(r))); got != w {
				t.Errorf("%s row %d = %q, want %q", name, r, got, w)
			}
		}
	}
	// Originals preserved.
	if tab.Dimension("Date") == nil || tab.Dimension("Store") == nil {
		t.Error("source columns lost")
	}
	if tab.MeasureColumn("Amount").At(2) != 30 {
		t.Error("measure values lost")
	}
	// Temporal dictionary ordering holds on derived columns.
	q := tab.Dimension("Date Quarter").Domain()
	if q[0] != "Q1" || q[len(q)-1] != "Q4" {
		t.Errorf("quarter domain order = %v", q)
	}
}

func TestDeriveTemporalMonthPrecision(t *testing.T) {
	b := NewBuilder("tx", []model.Field{
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "V", Kind: model.KindMeasure},
	})
	b.AddRow([]string{"2021-03"}, []float64{1})
	b.AddRow([]string{"2021-07"}, []float64{2})
	tab, err := DeriveTemporal(b.Build(), "Month")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Dimension("Month Weekday") != nil || tab.Dimension("Month Week") != nil {
		t.Error("day-precision columns derived from month-precision dates")
	}
	if tab.Dimension("Month Quarter") == nil {
		t.Error("quarter missing")
	}
}

func TestDeriveTemporalErrors(t *testing.T) {
	tab := buildSalesTable(t)
	if _, err := DeriveTemporal(tab, "Nope"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := DeriveTemporal(tab, "Month"); err == nil {
		t.Error("month names are not parseable dates; expected an error")
	}
}
