package engine

import (
	"math"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

// ReferenceSubstrate is the retained naive scan: a row-at-a-time accumulate
// closure over every table row, verifying every filter per row, with freshly
// allocated full-domain accumulators per scan. It touches no posting set, so
// it shares no build code with what it checks. It is the
// executable specification the vectorized ColumnarSubstrate is
// differentially tested against, and the one scan oracle. Not used on any
// production path.
//
// To produce byte-comparable units it accepts the same needed-aggregate set
// as the vectorized substrate (nil = min/max for every measure). Note its
// row-order accumulation only matches the morselized pipeline bit for bit
// when sums are exact (e.g. integer-valued measures) or the scan fits one
// morsel; see the differential tests.
type ReferenceSubstrate struct {
	tab    *dataset.Table
	minMax []bool // per measure column: carries min/max
	cols   *cache.Columns
}

// NewReferenceSubstrate creates the naive reference scan over tab. minMax
// restricts which measure columns carry min/max aggregates (nil = all),
// mirroring the columnar substrate's minMax setting.
func NewReferenceSubstrate(tab *dataset.Table, minMax map[string]bool) *ReferenceSubstrate {
	c := &ReferenceSubstrate{tab: tab}
	var names []string
	for _, mc := range tab.MeasureColumns() {
		names = append(names, mc.Name)
		c.minMax = append(c.minMax, minMax == nil || minMax[mc.Name])
	}
	c.cols = cache.NewColumns(names, c.minMax)
	return c
}

// filterSpec is a resolved subspace filter.
type filterSpec struct {
	col  *dataset.DimColumn
	code int32
}

func resolveFilters(tab *dataset.Table, s model.Subspace) []filterSpec {
	specs := make([]filterSpec, 0, len(s))
	for _, f := range s {
		col := tab.Dimension(f.Dim)
		specs = append(specs, filterSpec{col: col, code: int32(col.Code(f.Value))})
	}
	return specs
}

// refScan accumulates every row of the table matching all of s's filters
// into cell(r) of fresh accumulators. The row count it reports is the number
// of those rows, brute-forced over the dictionary codes: what the plan of s
// visits and Engine.ScanCostAt charges.
func (c *ReferenceSubstrate) refScan(s model.Subspace, cells int, cell func(r int) int) (counts []float64, sums, mins, maxs [][]float64, scanned int) {
	filters := resolveFilters(c.tab, s)
	mcols := c.tab.MeasureColumns()
	counts, sums, mins, maxs = refAlloc(cells, len(mcols))
rows:
	for r := 0; r < c.tab.Rows(); r++ {
		for _, f := range filters {
			if f.col.CodeAt(r) != f.code {
				continue rows
			}
		}
		scanned++
		g := cell(r)
		counts[g]++
		for i, mc := range mcols {
			v := mc.At(r)
			sums[i][g] += v
			if v < mins[i][g] {
				mins[i][g] = v
			}
			if v > maxs[i][g] {
				maxs[i][g] = v
			}
		}
	}
	return counts, sums, mins, maxs, scanned
}

// ScanUnitAt implements Substrate with the naive per-row scan. It reads only
// h's subspace value and the table, never the handle's resolved filters or
// plan, so it shares nothing with what it checks.
func (c *ReferenceSubstrate) ScanUnitAt(h *Handle, bdim int) (cache.Unit, int) {
	bcol := c.tab.Dimensions()[bdim]
	counts, sums, mins, maxs, scanned := c.refScan(h.Subspace(), bcol.Cardinality(), func(r int) int {
		return int(bcol.CodeAt(r))
	})
	return c.refBuildUnit(counts, sums, mins, maxs), scanned
}

// ScanAugmentedAt implements Substrate with the naive per-row scan, reading
// only base's subspace value and the table.
func (c *ReferenceSubstrate) ScanAugmentedAt(base *Handle, bdim, ext int) ([]cache.Unit, int) {
	bcol, dcol := c.tab.Dimensions()[bdim], c.tab.Dimensions()[ext]
	bcard, dcard := bcol.Cardinality(), dcol.Cardinality()
	mcols := c.tab.MeasureColumns()
	counts, sums, mins, maxs, scanned := c.refScan(base.Subspace(), bcard*dcard, func(r int) int {
		return int(dcol.CodeAt(r))*bcard + int(bcol.CodeAt(r))
	})

	units := make([]cache.Unit, dcard)
	for dv := range units {
		lo, hi := dv*bcard, (dv+1)*bcard
		colSums := make([][]float64, len(mcols))
		colMins := make([][]float64, len(mcols))
		colMaxs := make([][]float64, len(mcols))
		for i := range mcols {
			colSums[i] = sums[i][lo:hi]
			colMins[i] = mins[i][lo:hi]
			colMaxs[i] = maxs[i][lo:hi]
		}
		units[dv] = c.refBuildUnit(counts[lo:hi], colSums, colMins, colMaxs)
	}
	return units, scanned
}

// refAlloc allocates fresh full-domain accumulators with the historical
// everything-initialized layout (min/max ±Inf-filled for every measure).
func refAlloc(cells, nmeas int) (counts []float64, sums, mins, maxs [][]float64) {
	counts = make([]float64, cells)
	sums = make([][]float64, nmeas)
	mins = make([][]float64, nmeas)
	maxs = make([][]float64, nmeas)
	for i := 0; i < nmeas; i++ {
		sums[i] = make([]float64, cells)
		mins[i] = make([]float64, cells)
		maxs[i] = make([]float64, cells)
		for g := 0; g < cells; g++ {
			mins[i][g] = math.Inf(1)
			maxs[i][g] = math.Inf(-1)
		}
	}
	return counts, sums, mins, maxs
}

// refBuildUnit compresses full-domain accumulator arrays into a unit holding
// only the non-empty groups, emitting min/max columns per the substrate's
// needed-aggregate set.
func (c *ReferenceSubstrate) refBuildUnit(counts []float64, sums, mins, maxs [][]float64) cache.Unit {
	codes := []uint32{}
	for g, cnt := range counts {
		if cnt > 0 {
			codes = append(codes, uint32(g))
		}
	}
	cols := append([][]float64{counts}, sums...)
	for i, keep := range c.minMax {
		if keep {
			cols = append(cols, mins[i], maxs[i])
		}
	}
	data := []float64{}
	for _, col := range cols {
		for _, g := range codes {
			data = append(data, col[g])
		}
	}
	return cache.Unit{Codes: codes, Data: data, Cols: c.cols}
}
