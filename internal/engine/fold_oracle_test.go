package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

// fractional rebuilds tab with every measure value given a random fractional
// part, so that any change in the order a cell's values are added moves the
// low bits of its sum.
func fractional(tab *dataset.Table, seed int64) *dataset.Table {
	r := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder(tab.Name(), tab.Fields())
	dims := make([]string, len(tab.Dimensions()))
	vals := make([]float64, len(tab.MeasureColumns()))
	for row := 0; row < tab.Rows(); row++ {
		for i, d := range tab.Dimensions() {
			dims[i] = d.Value(int(d.CodeAt(row)))
		}
		for i, mc := range tab.MeasureColumns() {
			vals[i] = mc.At(row) + r.NormFloat64()*1e3/7
		}
		b.AddRow(dims, vals)
	}
	return b.Build()
}

// foldCells is the per-cell result of the oracle fold.
type foldCells struct {
	counts           []float64
	sums, mins, maxs [][]float64 // per measure column
}

func newFoldCells(cells, nmeas int) *foldCells {
	f := &foldCells{counts: make([]float64, cells)}
	for i := 0; i < nmeas; i++ {
		f.sums = append(f.sums, make([]float64, cells))
		mn, mx := make([]float64, cells), make([]float64, cells)
		for g := range mn {
			mn[g], mx[g] = math.Inf(1), math.Inf(-1)
		}
		f.mins, f.maxs = append(f.mins, mn), append(f.maxs, mx)
	}
	return f
}

// perRowFold is the oracle for a filtered scan under s: the plan's driving
// rows in ascending order, cut every morsel rows; within a morsel each row
// that passes every filter of s is added to its cell one at a time into a
// fresh partial; partials merge into the result in morsel order. cell maps a
// row to its accumulator cell. It also checks the driving set itself: the plan
// drives every matching row and nothing else.
func perRowFold(t *testing.T, c *ColumnarSubstrate, s model.Subspace, cells int, cell func(r int) int) *foldCells {
	t.Helper()
	tab := c.tab
	match := func(r int) bool {
		for _, f := range s {
			d := tab.Dimension(f.Dim)
			if int(d.CodeAt(r)) != d.Code(f.Value) {
				return false
			}
		}
		return true
	}
	plan := c.in.Intern(s).plan(nil)
	var drive []int
	for k := 0; k+1 < len(plan.runs); k++ {
		lo := int(plan.runs[k].Row)
		for r := lo; r < lo+int(plan.runs[k+1].Pos-plan.runs[k].Pos); r++ {
			if len(drive) > 0 && r <= drive[len(drive)-1] {
				t.Fatalf("[%s]: driving rows not ascending at row %d", s.Key(), r)
			}
			drive = append(drive, r)
		}
	}
	if len(drive) != plan.rows {
		t.Fatalf("[%s]: plan drives %d rows, reports %d", s.Key(), len(drive), plan.rows)
	}
	matching, driven := 0, 0
	for r := 0; r < tab.Rows(); r++ {
		if match(r) {
			matching++
		}
	}
	for _, r := range drive {
		if match(r) {
			driven++
		}
	}
	if driven != matching || len(drive) != matching {
		t.Fatalf("[%s]: plan drives %d rows holding %d of the %d matching", s.Key(), len(drive), driven, matching)
	}

	nmeas := len(c.mvals)
	out := newFoldCells(cells, nmeas)
	for lo := 0; lo < len(drive); lo += c.morsel {
		part := newFoldCells(cells, nmeas)
		for _, r := range drive[lo:min(lo+c.morsel, len(drive))] {
			if !match(r) {
				continue
			}
			g := cell(r)
			part.counts[g]++
			for i, vals := range c.mvals {
				x := vals[r]
				part.sums[i][g] += x
				part.mins[i][g] = min(part.mins[i][g], x)
				part.maxs[i][g] = max(part.maxs[i][g], x)
			}
		}
		out.merge(part)
	}
	return out
}

// merge folds a morsel's partial into f, as mergeAcc folds one into a
// scan's result.
func (f *foldCells) merge(part *foldCells) {
	for g, n := range part.counts {
		if n == 0 {
			continue
		}
		f.counts[g] += n
		for i := range f.sums {
			f.sums[i][g] += part.sums[i][g]
			f.mins[i][g] = min(f.mins[i][g], part.mins[i][g])
			f.maxs[i][g] = max(f.maxs[i][g], part.maxs[i][g])
		}
	}
}

// laneFold is the oracle for an unfiltered scan: the table's rows cut every
// morsel rows; within a morsel, each maximal stretch of rows with one cell
// adds to that cell of a fresh partial either its sum through four lanes,
// combined as (s0+s1)+(s2+s3) with the tail added in order, when it holds at
// least 8 rows, or else its values one at a time; partials merge into the
// result in morsel order. cell maps a row to its accumulator cell.
func laneFold(c *ColumnarSubstrate, cells int, cell func(r int) int) *foldCells {
	nmeas := len(c.mvals)
	out := newFoldCells(cells, nmeas)
	rows := c.tab.Rows()
	for lo := 0; lo < rows; lo += c.morsel {
		hi := min(lo+c.morsel, rows)
		part := newFoldCells(cells, nmeas)
		for j := lo; j < hi; {
			g, e := cell(j), j+1
			for e < hi && cell(e) == g {
				e++
			}
			part.counts[g] += float64(e - j)
			for i, vals := range c.mvals {
				v := vals[j:e]
				if len(v) >= 8 {
					var lane [4]float64
					n := len(v) / 4 * 4
					for k, x := range v[:n] {
						lane[k%4] += x
					}
					s := (lane[0] + lane[1]) + (lane[2] + lane[3])
					for _, x := range v[n:] {
						s += x
					}
					part.sums[i][g] += s
				} else {
					for _, x := range v {
						part.sums[i][g] += x
					}
				}
				for _, x := range v {
					part.mins[i][g] = min(part.mins[i][g], x)
					part.maxs[i][g] = max(part.maxs[i][g], x)
				}
			}
			j = e
		}
		out.merge(part)
	}
	return out
}

// checkFoldUnit compares unit u bit for bit with the oracle cells [lo, lo+n):
// the same non-empty groups, and every count, sum, min and max the unit
// carries.
func checkFoldUnit(t *testing.T, c *ColumnarSubstrate, what string, unit cache.Unit, want *foldCells, lo, n int, domain []string) {
	t.Helper()
	u := unit.Named(domain)
	idx := 0
	for g := 0; g < n; g++ {
		cell := lo + g
		if want.counts[cell] == 0 {
			continue
		}
		if idx >= len(u.GroupKeys) || u.GroupKeys[idx] != domain[g] {
			t.Fatalf("%s: group %q missing from the unit's %v", what, domain[g], u.GroupKeys)
		}
		same := func(col string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: group %q %s = %v (%#x), per-row fold %v (%#x)",
					what, domain[g], col, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		same("count", u.Counts[idx], want.counts[cell])
		for i, mc := range c.mcols {
			same("sum "+mc.Name, u.Sums[mc.Name][idx], want.sums[i][cell])
			if c.needMM[i] {
				same("min "+mc.Name, u.Mins[mc.Name][idx], want.mins[i][cell])
				same("max "+mc.Name, u.Maxs[mc.Name][idx], want.maxs[i][cell])
			}
		}
		idx++
	}
	if idx != len(u.GroupKeys) {
		t.Fatalf("%s: unit has %d groups, per-row fold %d", what, len(u.GroupKeys), idx)
	}
}

// checkFoldAugmented compares the units of an augmented scan grouped by
// (bcol, dcol) with the oracle cells, one ext value at a time.
func checkFoldAugmented(t *testing.T, c *ColumnarSubstrate, what string, units []cache.Unit, want *foldCells, bcol, dcol *dataset.DimColumn) {
	t.Helper()
	bcard := bcol.Cardinality()
	for dv, u := range units {
		if u.Len() == 0 {
			u.Cols = c.cols // a sibling without rows is the zero unit
		} else if u.Cols != c.cols {
			t.Fatalf("%s +%s=%s: the unit's layout is not its substrate's", what, dcol.Name, dcol.Value(dv))
		}
		checkFoldUnit(t, c, fmt.Sprintf("%s +%s=%s", what, dcol.Name, dcol.Value(dv)), u, want, dv*bcard, bcard, bcol.Domain())
	}
}

// foldArms runs check on every arm of the fold oracles: diffTables' four
// row layouts made fractional × morsel sizes 7 and 64 × scan parallelism 1
// and 4 × min/max on both measure columns, on neither (the paired sum-only
// fold) and on one. r is seeded per arm.
func foldArms(t *testing.T, check func(t *testing.T, c *ColumnarSubstrate, arm string, r *rand.Rand)) {
	for layout, tab := range diffTables(53) {
		tab := fractional(tab, 53)
		t.Run(layout, func(t *testing.T) {
			for _, morsel := range []int{7, 64} {
				for _, par := range []int{1, 4} {
					for mm, minMax := range map[string]map[string]bool{"all": nil, "none": {}, "Profit": {"Profit": true}} {
						c := newColumnarSubstrate(tab, columnarConfig{par: par, morsel: morsel, minMax: minMax})
						arm := fmt.Sprintf("morsel %d par %d minmax %s", morsel, par, mm)
						check(t, c, arm, rand.New(rand.NewSource(int64(morsel*10+par))))
					}
				}
			}
		})
	}
}

// TestFilteredScanMatchesPerRowFold pins every filtered scan, unit and
// augmented, bit for bit to a plain per-row fold over fractional values, on
// every arm of foldArms. The differential suite compares integer-valued
// sums, which any addition order gets right; this is the test that fails
// when a kernel change regroups a filtered cell's additions.
func TestFilteredScanMatchesPerRowFold(t *testing.T) {
	foldArms(t, func(t *testing.T, c *ColumnarSubstrate, arm string, r *rand.Rand) {
		tab := c.tab
		dims := tab.DimensionNames()
		for trial := 0; trial < 12; trial++ {
			sub := randomSubspace(r, tab, 1+r.Intn(3))
			bdim := dims[r.Intn(len(dims))]
			if sub.Has(bdim) {
				continue
			}
			bcol := tab.Dimension(bdim)
			bcodes := bcol.Codes()
			u, _ := c.ScanUnitAt(c.in.Intern(sub), tab.DimensionIndex(bdim))
			want := perRowFold(t, c, sub, bcol.Cardinality(), func(r int) int { return int(bcodes[r]) })
			checkFoldUnit(t, c, fmt.Sprintf("%s unit [%s ⟂ %s]", arm, sub.Key(), bdim), u, want, 0, bcol.Cardinality(), bcol.Domain())

			ext := dims[r.Intn(len(dims))]
			base := sub.Without(ext)
			if ext == bdim || len(base) == 0 {
				continue
			}
			dcol := tab.Dimension(ext)
			dcodes, bcard := dcol.Codes(), bcol.Cardinality()
			units, _ := c.ScanAugmentedAt(c.in.Intern(base), tab.DimensionIndex(bdim), tab.DimensionIndex(ext))
			want = perRowFold(t, c, base, bcard*dcol.Cardinality(), func(r int) int { return int(dcodes[r])*bcard + int(bcodes[r]) })
			checkFoldAugmented(t, c, fmt.Sprintf("%s augmented [%s ⟂ %s]", arm, base.Key(), bdim), units, want, bcol, dcol)
		}
	})
}

// TestFullScanMatchesLaneFold pins every unfiltered scan bit for bit to
// laneFold on every arm of foldArms: the unit scan of every breakdown and
// the augmented scan of every (breakdown, ext) pair. Full-table plans are
// the only scans whose runs fold through lanes, and nothing else fixes that
// association: the differential suite compares integer-valued sums.
func TestFullScanMatchesLaneFold(t *testing.T) {
	foldArms(t, func(t *testing.T, c *ColumnarSubstrate, arm string, _ *rand.Rand) {
		dims := c.tab.DimensionNames()
		for _, bdim := range dims {
			bcol := c.tab.Dimension(bdim)
			bcodes, bcard := bcol.Codes(), bcol.Cardinality()
			u, _ := c.ScanUnitAt(c.in.Intern(model.EmptySubspace), c.tab.DimensionIndex(bdim))
			want := laneFold(c, bcard, func(r int) int { return int(bcodes[r]) })
			checkFoldUnit(t, c, fmt.Sprintf("%s unit [⟂ %s]", arm, bdim), u, want, 0, bcard, bcol.Domain())
			for _, ext := range dims {
				if ext == bdim {
					continue
				}
				dcol := c.tab.Dimension(ext)
				dcodes := dcol.Codes()
				units, _ := c.ScanAugmentedAt(c.in.Intern(model.EmptySubspace), c.tab.DimensionIndex(bdim), c.tab.DimensionIndex(ext))
				want := laneFold(c, bcard*dcol.Cardinality(), func(r int) int { return int(dcodes[r])*bcard + int(bcodes[r]) })
				checkFoldAugmented(t, c, fmt.Sprintf("%s augmented [⟂ %s]", arm, bdim), units, want, bcol, dcol)
			}
		}
	})
}
