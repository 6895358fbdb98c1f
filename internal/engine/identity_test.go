package engine

import (
	"testing"

	"metainsight/internal/core"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

// TestIdentityStringsArePinned pins the external identity formats — the
// strings that reach traces and result keys — to literals captured before
// subspaces were interned. Any change to these bytes changes the traces and
// keys clients already hold.
func TestIdentityStringsArePinned(t *testing.T) {
	sub := model.NewSubspace(
		model.Filter{Dim: "Month", Value: "2019-04"},
		model.Filter{Dim: "City", Value: "Los Angeles"},
	)
	ds := model.DataScope{Subspace: sub, Breakdown: "Style", Measure: model.Sum("Sales")}
	domain := []string{"Los Angeles", "San Jose"}
	for _, c := range []struct{ name, got, want string }{
		{"Subspace.Key", sub.Key(), "{City=Los Angeles;Month=2019-04}"},
		{"Subspace.Key empty", model.EmptySubspace.Key(), "{*}"},
		{"DataScope.Key", ds.Key(), "{City=Los Angeles;Month=2019-04}|Style|SUM(Sales)"},
		{"DataScope.Key count", model.DataScope{Breakdown: "Month", Measure: model.Count("*")}.Key(), "{*}|Month|COUNT(*)"},
		{"HDS.Key subspace", core.SubspaceHDS(ds, "City", domain).Key(), "S|{Month=2019-04}|City|Style|SUM(Sales)"},
		{"HDS.Key measure", core.MeasureHDS(ds, []model.Measure{model.Sum("Sales"), model.Count("*")}).Key(), "M|{City=Los Angeles;Month=2019-04}|Style"},
		{"HDS.Key breakdown", core.BreakdownHDS(ds, []string{"Week"}).Key(), "B|{City=Los Angeles;Month=2019-04}|SUM(Sales)"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %q, want %q", c.name, c.got, c.want)
		}
	}
}

// TestCollidingSubspacesGetTheirOwnUnits is the regression test for
// unescaped keys: {A="x;B=y"} and {A=x, B=y} used to share the key
// "{A=x;B=y}", so the query cache and the plan memo served one subspace the
// other's unit and row count.
func TestCollidingSubspacesGetTheirOwnUnits(t *testing.T) {
	b := dataset.NewBuilder("collide", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "C", Kind: model.KindCategorical},
		{Name: "M", Kind: model.KindMeasure},
	})
	as := []string{"x", "x;B=y", "z"}
	bs := []string{"y", "w"}
	cs := []string{"c1", "c2", "c3", "c4", "c5"}
	for i := 0; i < 300; i++ {
		b.AddRow([]string{as[i%len(as)], bs[i%len(bs)], cs[i%len(cs)]}, []float64{1})
	}
	tab := b.Build()
	e := newEngine(t, tab)

	one := model.NewSubspace(model.Filter{Dim: "A", Value: "x;B=y"})
	two := model.NewSubspace(model.Filter{Dim: "A", Value: "x"}, model.Filter{Dim: "B", Value: "y"})
	if one.Key() == two.Key() {
		t.Errorf("distinct subspaces share the key %q", one.Key())
	}
	// Query one first so that, were the keys to collide, two would be served
	// one's cached unit.
	for _, sub := range []model.Subspace{one, two} {
		ds := model.DataScope{Subspace: sub, Breakdown: "C", Measure: model.Count("*")}
		got, err := e.BasicQuery(ds)
		if err != nil {
			t.Fatal(err)
		}
		_, want := naiveAggregate(tab, ds)
		total := 0.0
		for i, k := range got.Keys {
			if got.Values[i] != want[k] {
				t.Errorf("%s [%s] = %v rows, want %v", sub, k, got.Values[i], want[k])
			}
			total += got.Values[i]
		}
		if rows := e.Intern(sub).plan(nil).rows; float64(rows) != total {
			t.Errorf("%s: planned %d rows, the subspace holds %v", sub, rows, total)
		}
	}
}
