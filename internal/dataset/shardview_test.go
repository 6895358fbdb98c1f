package dataset

import (
	"fmt"
	"reflect"
	"testing"

	"metainsight/internal/model"
)

// shardTestTable builds a deterministic table with clustered and scattered
// dimensions so zone maps and posting sets both have structure to verify.
func shardTestTable(rows int) *Table {
	b := NewBuilder("shardtest", []model.Field{
		{Name: "Clustered", Kind: model.KindCategorical},
		{Name: "Scattered", Kind: model.KindCategorical},
		{Name: "M", Kind: model.KindMeasure},
	})
	for i := 0; i < rows; i++ {
		b.AddRow([]string{
			fmt.Sprintf("c%02d", i/16),     // runs of 16 identical codes
			fmt.Sprintf("s%02d", (i*7)%13), // scattered
		}, []float64{float64(i) * 0.5})
	}
	return b.Build()
}

// rebuiltSlice builds a fresh table over parent rows [lo, hi) the slow way,
// as the ground truth shard views must match.
func rebuiltSlice(t *Table, lo, hi int) *Table {
	b := NewBuilder("rebuilt", t.Fields())
	for i := lo; i < hi; i++ {
		dims := make([]string, len(t.dims))
		for d, c := range t.dims {
			dims[d] = c.Value(int(c.CodeAt(i)))
		}
		meas := make([]float64, len(t.measures))
		for m, c := range t.measures {
			meas[m] = c.At(i)
		}
		b.AddRow(dims, meas)
	}
	return b.Build()
}

func TestShardViewPostingsMatchRebuilt(t *testing.T) {
	tab := shardTestTable(200)
	for _, r := range [][2]int{{0, 64}, {64, 128}, {128, 200}, {32, 96}, {0, 200}} {
		view := tab.ShardView(r[0], r[1])
		if view.Rows() != r[1]-r[0] {
			t.Fatalf("view[%d:%d) rows = %d", r[0], r[1], view.Rows())
		}
		ref := rebuiltSlice(tab, r[0], r[1])
		for _, name := range []string{"Clustered", "Scattered"} {
			vc, rc := view.Dimension(name), ref.Dimension(name)
			// The view keeps the full parent domain; the rebuilt table only
			// sees values present in the range. Compare per value.
			for code, val := range vc.Domain() {
				got := vc.PostingsBitmap(code).ToArray(nil)
				want := rc.PostingsBitmap(rc.Code(val)).ToArray(nil)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("view[%d:%d) %s=%q postings = %v, want %v", r[0], r[1], name, val, got, want)
				}
			}
		}
	}
}

func TestShardViewZoneMaps(t *testing.T) {
	tab := shardTestTable(200)
	col := tab.Dimension("Clustered")
	parentZ := col.Zones(16)

	// Block-aligned view: zone vectors must be exact sub-slices of the parent.
	view := tab.ShardView(32, 96)
	vz := view.Dimension("Clustered").Zones(16)
	if vz.Blocks() != 4 {
		t.Fatalf("aligned view blocks = %d, want 4", vz.Blocks())
	}
	for b := 0; b < 4; b++ {
		if vz.Min(b) != parentZ.Min(2+b) || vz.Max(b) != parentZ.Max(2+b) {
			t.Fatalf("aligned view block %d = [%d,%d], parent block %d = [%d,%d]",
				b, vz.Min(b), vz.Max(b), 2+b, parentZ.Min(2+b), parentZ.Max(2+b))
		}
	}

	// View ending at the table's final (short) block stays aligned.
	tail := tab.ShardView(192, 200)
	tz := tail.Dimension("Clustered").Zones(16)
	if tz.Blocks() != 1 || tz.Min(0) != parentZ.Min(12) || tz.Max(0) != parentZ.Max(12) {
		t.Fatalf("tail view zones = %d blocks [%d,%d]", tz.Blocks(), tz.Min(0), tz.Max(0))
	}

	// Unaligned view: generic build, still exact per view block.
	odd := tab.ShardView(8, 72)
	oz := odd.Dimension("Clustered").Zones(16)
	ref := rebuiltSlice(tab, 8, 72).Dimension("Clustered")
	refZ := ref.Zones(16)
	if oz.Blocks() != refZ.Blocks() {
		t.Fatalf("unaligned blocks = %d, want %d", oz.Blocks(), refZ.Blocks())
	}
	for b := 0; b < oz.Blocks(); b++ {
		// Codes are shared with the parent dictionary, and the rebuilt
		// table re-dictionarizes; compare through values instead.
		gotMin, gotMax := odd.Dimension("Clustered").Value(int(oz.Min(b))), odd.Dimension("Clustered").Value(int(oz.Max(b)))
		wantMin, wantMax := ref.Value(int(refZ.Min(b))), ref.Value(int(refZ.Max(b)))
		if gotMin != wantMin || gotMax != wantMax {
			t.Fatalf("unaligned block %d = [%s,%s], want [%s,%s]", b, gotMin, gotMax, wantMin, wantMax)
		}
	}
}

func TestShardViewSharesStorage(t *testing.T) {
	tab := shardTestTable(100)
	view := tab.ShardView(20, 80)
	if &view.Dimension("Clustered").Codes()[0] != &tab.Dimension("Clustered").Codes()[20] {
		t.Fatal("view codes are not a slice of the parent's")
	}
	if &view.MeasureColumn("M").Values()[0] != &tab.MeasureColumn("M").Values()[20] {
		t.Fatal("view measures are not a slice of the parent's")
	}
	// A view of a view chains to the root so indexes stay shared.
	inner := view.ShardView(10, 40)
	if inner.Dimension("Clustered").parent != tab.Dimension("Clustered") {
		t.Fatal("nested view does not chain to the root column")
	}
	if got := inner.Dimension("Clustered").base; got != 30 {
		t.Fatalf("nested view base = %d, want 30", got)
	}
}
