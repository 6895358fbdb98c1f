package engine

// Differential tests of the block-partial scan layer behind sharded
// execution: folding a scan's block partials in ascending block order must
// reproduce the plain scan bit for bit on full scans (blocks coincide with
// morsels), match it exactly on integer-valued tables for every plan
// strategy, and be strategy- and parallelism-invariant bit for bit on
// fractional data — the properties internal/shard's merge relies on.

import (
	"fmt"
	"math/rand"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

// foldUnitBlocks runs ScanUnitBlocks and folds the partials in order.
func foldUnitBlocks(t *testing.T, c *ColumnarSubstrate, s model.Subspace, breakdown string) (string, int) {
	t.Helper()
	parts, rows, err := c.ScanUnitBlocks(s, breakdown)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	m := c.NewMerger(c.UnitCells(breakdown))
	for i := range parts {
		if parts[i].Block <= last {
			t.Fatalf("blocks out of order: %d after %d", parts[i].Block, last)
		}
		last = parts[i].Block
		m.Fold(&parts[i])
	}
	return unitJSON(t, m.FinishUnit(s, breakdown)), rows
}

// foldAugBlocks runs ScanAugmentedBlocks and folds the partials in order.
func foldAugBlocks(t *testing.T, c *ColumnarSubstrate, base model.Subspace, breakdown, ext string) string {
	t.Helper()
	parts, _, err := c.ScanAugmentedBlocks(base, breakdown, ext)
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMerger(c.AugmentedCells(breakdown, ext))
	for i := range parts {
		m.Fold(&parts[i])
	}
	units := m.FinishAugmented(base, breakdown, ext)
	anyUnits := make(map[string]any, len(units))
	for k, v := range units {
		anyUnits[k] = v
	}
	return augJSON(t, anyUnits)
}

func TestBlockPartialsMatchScanInteger(t *testing.T) {
	tab := randomTable(43, 700)
	subs := diffSubstrates(tab, nil)
	r := rand.New(rand.NewSource(9))
	dims := tab.DimensionNames()
	for trial := 0; trial < 40; trial++ {
		sub := randomSubspace(r, tab, r.Intn(4))
		breakdown := dims[r.Intn(len(dims))]
		if sub.Has(breakdown) {
			continue
		}
		for name, c := range subs {
			wantU, wantRows, err := c.ScanUnit(sub, breakdown)
			if err != nil {
				t.Fatal(err)
			}
			got, gotRows := foldUnitBlocks(t, c, sub, breakdown)
			if want := unitJSON(t, wantU); got != want {
				t.Fatalf("trial %d %s: folded blocks differ from scan\n got %s\nwant %s", trial, name, got, want)
			}
			if gotRows != wantRows {
				t.Fatalf("trial %d %s: rows %d vs %d", trial, name, gotRows, wantRows)
			}
		}
	}
}

func TestBlockPartialsAugmentedMatchScan(t *testing.T) {
	tab := randomTable(44, 600)
	subs := diffSubstrates(tab, map[string]bool{"Sales": true})
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		sub := randomSubspace(r, tab, r.Intn(3))
		breakdown, ext := "City", "Month"
		if sub.Has(breakdown) || sub.Has(ext) {
			continue
		}
		for name, c := range subs {
			wantU, _, err := c.ScanAugmented(sub, breakdown, ext)
			if err != nil {
				t.Fatal(err)
			}
			anyWant := make(map[string]any, len(wantU))
			for k, v := range wantU {
				anyWant[k] = v
			}
			if got, want := foldAugBlocks(t, c, sub, breakdown, ext), augJSON(t, anyWant); got != want {
				t.Fatalf("trial %d %s: folded augmented blocks differ\n got %s\nwant %s", trial, name, got, want)
			}
		}
	}
}

// TestBlockPartialsFractionalInvariance is the heart of the shard
// bit-identity argument: on arbitrary floats, the folded block result is
// byte-identical across plan strategies and scan parallelism, because every
// filtered path selects the same rows per address block in the same order.
// The full (filters=0) scan is additionally byte-identical to the plain
// morselized scan, since blocks and morsels coincide.
func TestBlockPartialsFractionalInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	b := dataset.NewBuilder("fracblocks", []model.Field{
		{Name: "G", Kind: model.KindCategorical},
		{Name: "H", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
		{Name: "W", Kind: model.KindMeasure},
	})
	for i := 0; i < 1200; i++ {
		b.AddRow([]string{
			fmt.Sprintf("g%d", r.Intn(7)),
			fmt.Sprintf("h%d", r.Intn(5)),
		}, []float64{r.NormFloat64() * 1e3, r.NormFloat64()})
	}
	tab := b.Build()

	for _, filters := range []model.Subspace{
		model.EmptySubspace,
		model.NewSubspace(model.Filter{Dim: "H", Value: "h1"}),
		model.NewSubspace(model.Filter{Dim: "H", Value: "h2"}, model.Filter{Dim: "G", Value: "g3"}),
	} {
		var want string
		for _, mode := range []PlanMode{PlanAuto, PlanBitmap, PlanResidual, PlanZone} {
			if len(filters) == 0 && mode != PlanAuto {
				continue // unfiltered scans have a single strategy
			}
			for _, par := range []int{1, 4} {
				c := NewColumnarSubstrate(tab, WithPlanMode(mode), WithScanParallelism(par), WithMorselSize(64))
				got, _ := foldUnitBlocks(t, c, filters, "G")
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("filters=%d mode=%v par=%d: fractional folded bits differ", len(filters), mode, par)
				}
			}
		}
		if len(filters) == 0 {
			c := NewColumnarSubstrate(tab, WithScanParallelism(1), WithMorselSize(64))
			u, _, err := c.ScanUnit(filters, "G")
			if err != nil {
				t.Fatal(err)
			}
			if got := unitJSON(t, u); got != want {
				t.Fatalf("filters=0: plain scan differs from folded blocks\n got %s\nwant %s", got, want)
			}
		}
	}
}
