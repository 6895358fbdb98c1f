package engine

import (
	"fmt"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// clusteredTable builds a table whose X and Y dimensions are both sorted at
// block granularity: X takes runs of rows/4, Y cycles in runs of 64 inside
// each X run. With a 64-row morsel, zone maps prune an {X, Y} filter pair to
// a single block while either posting list alone holds rows/4.
func clusteredTable(rows int) *dataset.Table {
	b := dataset.NewBuilder("clustered", []model.Field{
		{Name: "X", Kind: model.KindCategorical},
		{Name: "Y", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	for i := 0; i < rows; i++ {
		b.AddRow([]string{
			fmt.Sprintf("x%d", i/(rows/4)),
			fmt.Sprintf("y%d", (i/64)%4),
			fmt.Sprintf("b%d", i%8),
		}, []float64{float64(i%97) + 0.5})
	}
	return b.Build()
}

// TestPlanAutoPicksZone checks the cost model end to end: on a
// block-clustered table, a two-filter subspace plans through the zone maps,
// skips nearly every block, and still produces exactly the reference unit
// with a row count no higher than the most selective posting list.
func TestPlanAutoPicksZone(t *testing.T) {
	tab := clusteredTable(1024)
	o := obs.New(obs.Options{})
	c := NewColumnarSubstrate(tab, WithMorselSize(64), WithScanObserver(o))
	ref := NewReferenceSubstrate(tab, nil)

	sub := model.NewSubspace(
		model.Filter{Dim: "X", Value: "x0"},
		model.Filter{Dim: "Y", Value: "y0"},
	)
	got, rows, err := c.ScanUnit(sub, "B")
	if err != nil {
		t.Fatal(err)
	}
	want, refRows, err := ref.ScanUnit(sub, "B")
	if err != nil {
		t.Fatal(err)
	}
	if unitJSON(t, got) != unitJSON(t, want) {
		t.Fatalf("zone unit mismatch\n got %s\nwant %s", unitJSON(t, got), unitJSON(t, want))
	}
	if rows > refRows {
		t.Fatalf("zone plan scanned %d rows, reference scanned %d", rows, refRows)
	}
	if pr := c.PlannedRows(sub); pr != rows {
		t.Fatalf("PlannedRows %d != scanned %d", pr, rows)
	}

	s := o.Snapshot()
	if s.Counters["engine.physical.plan_zone"] == 0 {
		t.Fatal("cost model did not choose the zone plan on a block-clustered table")
	}
	// 1024 rows / 64-row blocks = 16 blocks; x0 covers blocks 0–3 and y0
	// survives only in the first block of each X run, so 15 are skipped.
	if skipped := s.Counters["engine.physical.blocks_skipped"]; skipped != 15 {
		t.Fatalf("blocks_skipped = %d, want 15", skipped)
	}
	if rows != 64 {
		t.Fatalf("zone plan rows = %d, want the single surviving 64-row block", rows)
	}
}

// TestForcedZoneMatchesReference drives the forced PlanZone strategy across
// parallelism, asserting byte-identical units against the
// reference even where the zone plan visits more rows than a posting drive.
func TestForcedZoneMatchesReference(t *testing.T) {
	tab := clusteredTable(512)
	ref := NewReferenceSubstrate(tab, nil)
	subs := []model.Subspace{
		model.NewSubspace(model.Filter{Dim: "X", Value: "x1"}),
		model.NewSubspace(model.Filter{Dim: "Y", Value: "y2"}),
		model.NewSubspace(
			model.Filter{Dim: "X", Value: "x3"},
			model.Filter{Dim: "Y", Value: "y1"},
		),
		model.NewSubspace(model.Filter{Dim: "X", Value: "nope"}),
	}
	for _, par := range []int{1, 4} {
		c := NewColumnarSubstrate(tab, WithPlanMode(PlanZone), WithScanParallelism(par), WithMorselSize(64))
		for _, sub := range subs {
			got, rows, err := c.ScanUnit(sub, "B")
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ref.ScanUnit(sub, "B")
			if err != nil {
				t.Fatal(err)
			}
			if unitJSON(t, got) != unitJSON(t, want) {
				t.Fatalf("par=%d [%s]: zone unit mismatch", par, sub.Key())
			}
			if pr := c.PlannedRows(sub); pr != rows {
				t.Fatalf("par=%d [%s]: PlannedRows %d != scanned %d", par, sub.Key(), pr, rows)
			}
		}
	}
}
