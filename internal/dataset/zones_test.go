package dataset

import (
	"fmt"
	"math/rand"
	"testing"

	"metainsight/internal/model"
)

// zoneTestTable builds a table whose single dimension takes random codes, for
// checking zone maps against a naive per-block reduction.
func zoneTestTable(seed int64, rows int) *Table {
	b := NewBuilder("zones", []model.Field{
		{Name: "D", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		b.AddRow([]string{fmt.Sprintf("d%02d", r.Intn(17))}, []float64{float64(i)})
	}
	return b.Build()
}

// TestZoneMapMatchesNaive checks per-block min/max against direct reduction
// at several block sizes, including ones that do not divide the row count.
func TestZoneMapMatchesNaive(t *testing.T) {
	tab := zoneTestTable(1, 517)
	col := tab.Dimension("D")
	codes := col.Codes()
	for _, blockRows := range []int{1, 7, 64, 517, 1000} {
		z := col.Zones(blockRows)
		if z.blockRows != blockRows {
			t.Fatalf("blockRows %d: map reports %d", blockRows, z.blockRows)
		}
		wantBlocks := (len(codes) + blockRows - 1) / blockRows
		if len(z.mins) != wantBlocks || len(z.maxs) != wantBlocks {
			t.Fatalf("blockRows %d: %d/%d blocks, want %d", blockRows, len(z.mins), len(z.maxs), wantBlocks)
		}
		for b := range z.mins {
			lo := b * blockRows
			hi := lo + blockRows
			if hi > len(codes) {
				hi = len(codes)
			}
			mn, mx := codes[lo], codes[lo]
			for _, c := range codes[lo:hi] {
				if c < mn {
					mn = c
				}
				if c > mx {
					mx = c
				}
			}
			if z.mins[b] != mn || z.maxs[b] != mx {
				t.Fatalf("blockRows %d block %d: [%d,%d], want [%d,%d]",
					blockRows, b, z.mins[b], z.maxs[b], mn, mx)
			}
		}
	}
}

// TestZoneMapCached checks that zone maps are built once per block size and
// shared across callers.
func TestZoneMapCached(t *testing.T) {
	col := zoneTestTable(2, 100).Dimension("D")
	if col.Zones(16) != col.Zones(16) {
		t.Fatal("same block size returned distinct zone maps")
	}
	if col.Zones(16) == col.Zones(32) {
		t.Fatal("distinct block sizes share a zone map")
	}
}

// TestPostingsBoundsBeforeBuild is the regression test for the lazy-build
// ordering bug: an out-of-range code (such as the -1 of an absent filter
// value) must answer nil from the dictionary bounds alone, without paying
// the O(rows) posting-set materialization.
func TestPostingsBoundsBeforeBuild(t *testing.T) {
	col := zoneTestTable(3, 200).Dimension("D")
	if got := col.PostingsBitmap(-1); got != nil {
		t.Fatalf("PostingsBitmap(-1) = %v, want nil", got)
	}
	if got := col.PostingsBitmap(col.Cardinality()); got != nil {
		t.Fatalf("PostingsBitmap(card) = %v, want nil", got)
	}
	if got := col.Postings(-1); got != nil {
		t.Fatalf("Postings(-1) = %v, want nil", got)
	}
	if col.bmPost != nil {
		t.Fatal("out-of-range lookups materialized the posting sets")
	}
	if col.PostingsBitmap(0).Cardinality() == 0 {
		t.Fatal("valid code returned no rows")
	}
	if col.bmPost == nil {
		t.Fatal("valid lookup did not build the posting sets")
	}
}
