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
	breakdown int          // the orientation the scan ran in
	rows      int          // rows the scan visited
	units     []cache.Unit // as scanned: one unit per ext code, empty if no rows

	twinOnce sync.Once
	twin     []cache.Unit // one unit per breakdown code, grouped by ext
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
func (e *Engine) scanPair(base *Handle, bdim, ext int) ([]cache.Unit, int) {
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

// putSiblings gives the query cache the non-empty units of
// ScanAugmentedAt(base, bdim, ext), indexed by ext code.
func (e *Engine) putSiblings(base *Handle, units []cache.Unit, bdim, ext int) {
	for code, u := range units {
		if u.Len() > 0 {
			e.qc.Put(e.UnitIDAt(base.With(ext, code), bdim), u)
		}
	}
}

// transposeUnits turns the units of one ScanAugmentedAt(base, bdim, ext) —
// one per ext code, grouped by bdim — into those of
// ScanAugmentedAt(base, ext, bdim):
// one per bdim code, grouped by ext, copying every aggregate of every
// non-empty cell. It relies on the Substrate contract that units list only
// non-empty groups, in domain order, and carry the same columns. As in the
// substrate, the twins share one array of codes and one of aggregates.
func (e *Engine) transposeUnits(src []cache.Unit, bdim, ext int) []cache.Unit {
	twins := make([]cache.Unit, e.tab.Dimensions()[bdim].Cardinality())

	// The group count of every twin.
	groups := make([]int, len(twins))
	var cols *cache.Columns
	total := 0
	for _, u := range src {
		if u.Len() == 0 {
			continue
		}
		cols = u.Cols
		total += u.Len()
		for _, code := range u.Codes {
			groups[code]++
		}
	}
	if cols == nil {
		return twins
	}
	w := cols.Width()
	codes, data := make([]uint32, total), make([]float64, total*w)
	off := 0
	for code, n := range groups {
		if n > 0 {
			end := off + n
			twins[code] = cache.Unit{Codes: codes[off:off:end], Data: data[off*w : end*w : end*w], Cols: cols}
			off = end
		}
	}

	for dv, u := range src {
		n := u.Len()
		for g, code := range u.Codes {
			t := &twins[code]
			at := len(t.Codes)
			t.Codes = append(t.Codes, uint32(dv))
			tn := groups[code]
			for c := 0; c < w; c++ {
				t.Data[c*tn+at] = u.Data[c*n+g]
			}
		}
	}
	return twins
}
