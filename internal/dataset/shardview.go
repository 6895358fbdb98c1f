package dataset

// Shard views: zero-copy row-range slices of an immutable Table, the storage
// substrate of sharded scan execution (internal/shard). A view shares the
// parent's dictionaries and measure value arrays and merely re-slices the
// per-row code/value vectors, so constructing N shards costs O(N), not
// O(rows). Each view builds its own bitmap posting sets from its code
// subslice (index.go); zone maps are derived, not rebuilt — sub-slices of the
// parent's block vectors whenever the view is block-aligned (zones.go),
// which the shard planner guarantees by cutting shards on morsel boundaries.

import "fmt"

// ShardView returns an immutable view of the table covering rows [lo, hi).
// The view shares the parent's dictionaries, measure storage and — lazily —
// its zone maps; it is safe for concurrent use like any Table. Dictionary
// codes are identical between parent and view (the dictionary is shared
// wholesale, including values that never occur inside the row range), so
// group-by cell ids computed against a view are directly comparable to the
// parent's.
func (t *Table) ShardView(lo, hi int) *Table {
	if lo < 0 || hi > t.rows || lo > hi {
		panic(fmt.Sprintf("dataset: ShardView[%d:%d) out of range for %d rows", lo, hi, t.rows))
	}
	v := &Table{
		name:     fmt.Sprintf("%s[%d:%d)", t.name, lo, hi),
		rows:     hi - lo,
		fields:   t.fields,
		dimNames: t.dimNames,
		temporal: t.temporal,
		dimIdx:   t.dimIdx,
		measIdx:  t.measIdx,
	}
	v.dims = make([]*DimColumn, len(t.dims))
	for i, d := range t.dims {
		// A view of a view chains to the root parent so all shards of one
		// table share a single set of root-built zone maps.
		root, base := d, lo
		if d.parent != nil {
			root, base = d.parent, d.base+lo
		}
		v.dims[i] = &DimColumn{
			Name:   d.Name,
			Kind:   d.Kind,
			dict:   d.dict,
			index:  d.index,
			codes:  d.codes[lo:hi],
			parent: root,
			base:   base,
		}
	}
	v.measures = make([]*MeasureColumn, len(t.measures))
	for i, m := range t.measures {
		v.measures[i] = &MeasureColumn{Name: m.Name, vals: m.vals[lo:hi]}
	}
	return v
}
