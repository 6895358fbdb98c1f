package engine

import (
	"sync"

	"metainsight/internal/cache"
)

// pairScan is one completed physical augmented scan and, once somebody asks
// for it, its twin: the same 2-D group-by with breakdown and augmentation
// dimension swapped, derived by transposing cells instead of scanning again
// (see Engine.scanPair).
type pairScan struct {
	breakdown int           // the orientation the scan ran in
	rows      int           // rows the scan visited
	units     []*cache.Unit // as scanned: one unit per ext code, nil if empty

	twinOnce sync.Once
	twin     []*cache.Unit // one unit per breakdown code, grouped by ext
}

// scanPair is the physical layer under MaterializeAugmentedAt: it returns
// the units of ScanAugmentedAt(base, bdim, ext), by ext code, and the rows
// that scan visits. A physical scan hands its units to the query cache.
//
// The 2-D group-by over (bdim, ext) under base answers the request and its
// twin with breakdown and augmentation dimension swapped, so each unordered
// dimension pair is scanned at most once per unit memo (Interner.units): the
// first request scans in its own orientation and is remembered; a later
// request for the twin is answered by transposing the remembered cells.
// That is exact, not merely equal up to rounding: a cell (bdim = v, ext = w)
// receives the same rows in the same order, with the same morsel, run and
// lane boundaries, whichever way the 2-D accumulator is laid out, so the
// transposed units are the bytes a twin scan would have produced. Repeated
// requests for a remembered orientation are served the same way, which also
// ends the re-scans of sibling groups with an empty member (never
// all-cached, so the miner asks again for every unit that touches them).
//
// Remembered units were all given to the query cache, which keeps what it is
// given, so the pair memo holds nothing the cache lacks an equal of.
func (e *Engine) scanPair(base *Handle, bdim, ext int) ([]*cache.Unit, int) {
	k := augKey{base: base.ord, lo: uint16(min(bdim, ext)), hi: uint16(max(bdim, ext))}
	p := e.pairs.Do(k, func() *pairScan {
		units, scanned := e.sub.ScanAugmentedAt(base, bdim, ext)
		e.recordScan(scanned, true)
		e.putSiblings(base, units, bdim, ext)
		return &pairScan{breakdown: bdim, rows: scanned, units: units}
	})
	if p.breakdown == bdim {
		return p.units, p.rows
	}
	p.twinOnce.Do(func() {
		p.twin = e.transposeUnits(p.units, ext, bdim)
		e.putSiblings(base, p.twin, bdim, ext)
	})
	return p.twin, p.rows
}

// putSiblings gives the query cache the units of ScanAugmentedAt(base,
// bdim, ext), indexed by ext code.
func (e *Engine) putSiblings(base *Handle, units []*cache.Unit, bdim, ext int) {
	for code, u := range units {
		if u != nil {
			e.qc.Put(e.UnitIDAt(base.With(ext, code), bdim), u)
		}
	}
}

// unitColumns lists u's float columns in a fixed order — counts, then the
// sum, min and max columns of the named measures — into cols.
func unitColumns(u *cache.Unit, sums, minmax []string, cols [][]float64) {
	cols[0] = u.Counts
	cols = cols[1:]
	for i, name := range sums {
		cols[i] = u.Sums[name]
	}
	cols = cols[len(sums):]
	for i, name := range minmax {
		cols[2*i], cols[2*i+1] = u.Mins[name], u.Maxs[name]
	}
}

// transposeUnits turns the units of one ScanAugmentedAt(base, bdim, ext) —
// one per ext code, grouped by bdim — into those of
// ScanAugmentedAt(base, ext, bdim):
// one per bdim code, grouped by ext, copying every aggregate of every
// non-empty cell. It relies on the Substrate contract that units list only
// non-empty groups, in domain order, and carry the same columns.
func (e *Engine) transposeUnits(src []*cache.Unit, bdim, ext int) []*cache.Unit {
	bcol, dcol := e.tab.Dimensions()[bdim], e.tab.Dimensions()[ext]
	bdomain := bcol.Domain()

	// The group count of every twin.
	groups := make([]int, len(bdomain))
	var first *cache.Unit
	for _, u := range src {
		if u == nil {
			continue
		}
		if first == nil {
			first = u
		}
		code := 0
		for _, k := range u.GroupKeys {
			for bdomain[code] != k {
				code++
			}
			groups[code]++
		}
	}
	twins := make([]*cache.Unit, len(bdomain))
	if first == nil {
		return twins
	}
	sums := make([]string, 0, len(first.Sums))
	for name := range first.Sums {
		sums = append(sums, name)
	}
	minmax := make([]string, 0, len(first.Mins))
	for name := range first.Mins {
		minmax = append(minmax, name)
	}
	ncols := 1 + len(sums) + 2*len(minmax)

	// One unit per non-empty bdim value; as in the substrate, all float
	// columns of a unit share one slab.
	dst := make([][]float64, len(bdomain)*ncols)
	for code, n := range groups {
		if n == 0 {
			continue
		}
		slab := make([]float64, n*ncols)
		next := func() []float64 {
			col := slab[:n:n]
			slab = slab[n:]
			return col
		}
		u := &cache.Unit{
			GroupKeys: make([]string, 0, n),
			Counts:    next(),
			Sums:      make(map[string][]float64, len(sums)),
			Mins:      make(map[string][]float64, len(minmax)),
			Maxs:      make(map[string][]float64, len(minmax)),
		}
		for _, name := range sums {
			u.Sums[name] = next()
		}
		for _, name := range minmax {
			u.Mins[name], u.Maxs[name] = next(), next()
		}
		unitColumns(u, sums, minmax, dst[code*ncols:(code+1)*ncols])
		twins[code] = u
	}

	from := make([][]float64, ncols)
	for dv, u := range src {
		if u == nil {
			continue
		}
		unitColumns(u, sums, minmax, from)
		code := 0
		for g, k := range u.GroupKeys {
			for bdomain[code] != k {
				code++
			}
			t := twins[code]
			at := len(t.GroupKeys)
			t.GroupKeys = append(t.GroupKeys, dcol.Value(dv))
			for i, col := range dst[code*ncols : (code+1)*ncols] {
				col[at] = from[i][g]
			}
		}
	}
	return twins
}
