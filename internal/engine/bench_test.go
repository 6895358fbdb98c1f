package engine

// Physical-layer benchmarks of the scan substrate: unit and augmented scans
// across filter depth (0–3), breakdown cardinality (small/large) and scan
// parallelism (1/4), each beside the naive reference substrate (which always
// reads the whole table), plus layout=clustered|shuffled arms at filter
// depth 0–2 over one 1 M-row table in generator order and in shuffled row
// order — the two regimes of the walk: code runs of hundreds of rows, which
// it jumps, and runs of about one, where its probe stops at the first row.
// For development only — numbers a claim rests on come from benchmark/. Run
// with
//
//	go test ./internal/engine -bench 'BenchmarkScan' -benchmem
//
// The "rows/op" metric is the simulated metered row count of the plan (what
// the cost model charges), not a throughput reading.

import (
	"fmt"
	"math/rand"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/workload"
)

// benchTables builds the two bench datasets once per process.
var benchTables = map[string]*dataset.Table{}

func benchTable(card string) *dataset.Table {
	if t, ok := benchTables[card]; ok {
		return t
	}
	var spec workload.GenSpec
	switch card {
	case "small":
		// 2880 cells × 35 rows ≈ 100k rows, breakdown cardinality 8.
		spec = workload.GenSpec{Name: "bench-small", Seed: 61, Cards: []int{8, 6, 5}, Periods: 12, Measures: 2, RowsPerCell: 35}
	case "large":
		// 221k distinct cells ≈ 221k rows, breakdown cardinality 64.
		spec = workload.GenSpec{Name: "bench-large", Seed: 67, Cards: []int{64, 24, 12}, Periods: 12, Measures: 2, RowsPerCell: 1}
	case "clustered", "shuffled":
		// The benchmark's gen1m shape: ≈1.04 M rows in cross-product order,
		// two fractional measures. "shuffled" holds the same rows permuted.
		spec = workload.GenSpec{Name: "bench-1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 300}
	default:
		panic("unknown bench table " + card)
	}
	t := workload.Generate(spec)
	if card == "shuffled" {
		t = permuteRows(t, rand.New(rand.NewSource(1)).Perm(t.Rows()))
	}
	benchTables[card] = t
	return t
}

// benchSubspace builds a subspace with the given number of filters over the
// non-breakdown dimensions of a generated bench table.
func benchSubspace(tab *dataset.Table, nFilters int) model.Subspace {
	dims := []string{"DimB", "DimC", "Period"}
	sub := model.EmptySubspace
	for i := 0; i < nFilters && i < len(dims); i++ {
		col := tab.Dimension(dims[i])
		sub = sub.With(dims[i], col.Domain()[col.Cardinality()/2])
	}
	return sub
}

// benchScanUnit runs one substrate configuration of BenchmarkScanUnit.
func benchScanUnit(b *testing.B, sub Substrate, h *Handle) {
	bdim := h.in.tab.DimensionIndex("DimA")
	var rows int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rows = sub.ScanUnitAt(h, bdim)
	}
	b.ReportMetric(float64(rows), "rows/op")
}

// benchLayouts runs fn over the filters=0,1,2 × layout=clustered|shuffled
// arms.
func benchLayouts(b *testing.B, fn func(b *testing.B, sub Substrate, h *Handle)) {
	for _, layout := range []string{"clustered", "shuffled"} {
		tab := benchTable(layout)
		vec, in := NewColumnarSubstrate(tab), NewInterner(tab)
		for _, nf := range []int{0, 1, 2} {
			h := in.Intern(benchSubspace(tab, nf))
			b.Run(fmt.Sprintf("layout=%s/filters=%d", layout, nf), func(b *testing.B) { fn(b, vec, h) })
		}
	}
}

func BenchmarkScanUnit(b *testing.B) {
	benchLayouts(b, benchScanUnit)
	for _, card := range []string{"small", "large"} {
		tab := benchTable(card)
		in := NewInterner(tab)
		for nf := 0; nf <= 3; nf++ {
			s := in.Intern(benchSubspace(tab, nf))
			for _, par := range []int{1, 4} {
				vec := newColumnarSubstrate(tab, columnarConfig{par: par})
				b.Run(fmt.Sprintf("table=%s/filters=%d/sub=vec/par=%d", card, nf, par), func(b *testing.B) {
					benchScanUnit(b, vec, s)
				})
			}
			ref := NewReferenceSubstrate(tab, nil)
			b.Run(fmt.Sprintf("table=%s/filters=%d/sub=ref", card, nf), func(b *testing.B) {
				benchScanUnit(b, ref, s)
			})
		}
	}
}

// benchScanAugmented runs one substrate configuration of
// BenchmarkScanAugmented.
func benchScanAugmented(b *testing.B, sub Substrate, h *Handle, ext string) {
	tab := h.in.tab
	bdim, xdim := tab.DimensionIndex("DimA"), tab.DimensionIndex(ext)
	var rows int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rows = sub.ScanAugmentedAt(h, bdim, xdim)
	}
	b.ReportMetric(float64(rows), "rows/op")
}

func BenchmarkScanAugmented(b *testing.B) {
	benchLayouts(b, func(b *testing.B, sub Substrate, h *Handle) {
		benchScanAugmented(b, sub, h, "Period")
	})
	for _, card := range []string{"small", "large"} {
		tab := benchTable(card)
		in := NewInterner(tab)
		for _, nf := range []int{0, 1, 2} {
			// Filters go on DimB/DimC; the augmentation dimension is Period,
			// so the base subspace never filters the ext dimension.
			dims := []string{"DimB", "DimC"}
			s := model.EmptySubspace
			for i := 0; i < nf; i++ {
				col := tab.Dimension(dims[i])
				s = s.With(dims[i], col.Domain()[col.Cardinality()/2])
			}
			h := in.Intern(s)
			for _, par := range []int{1, 4} {
				vec := newColumnarSubstrate(tab, columnarConfig{par: par})
				b.Run(fmt.Sprintf("table=%s/filters=%d/sub=vec/par=%d", card, nf, par), func(b *testing.B) {
					benchScanAugmented(b, vec, h, "Period")
				})
			}
			ref := NewReferenceSubstrate(tab, nil)
			b.Run(fmt.Sprintf("table=%s/filters=%d/sub=ref", card, nf), func(b *testing.B) {
				benchScanAugmented(b, ref, h, "Period")
			})
		}
	}
}
