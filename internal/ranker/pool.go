package ranker

import (
	"metainsight/internal/core"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

// Item is one candidate in the flat form every ranking algorithm reads: its
// score and the identity fields the overlap ratio (Equations 25-28)
// compares, as ordinals. Two items of one pool share an ExtDim, a Measure or
// a Breakdown exactly when the MetaInsights they stand for share the
// extended dimension, the anchor measure or the anchor breakdown; their
// HDS root subspaces are lists of filter ids in the pool, one id per
// (dimension, value) pair. An item holds no pointer.
type Item struct {
	Score     float64
	Kind      model.ExtensionKind
	Type      pattern.Type
	ExtDim    int32
	Measure   int32
	Breakdown int32

	rootAt, rootLen uint32 // the root's filter ids in Pool.filters
}

// Pool is a candidate pool in flat form. The ranking algorithms read its
// items in order, and those that select (Greedy) require the ranking order:
// score descending, ties in identity-key order (core.MetaInsight.Key). A
// Pool can be emptied and refilled; the buffers it grew are kept.
type Pool struct {
	Items   []Item
	filters []uint64

	// Greedy's per-item state, kept for the next selection.
	used    []bool
	penalty []float64
}

// Reset empties the pool.
func (p *Pool) Reset() {
	p.Items, p.filters = p.Items[:0], p.filters[:0]
}

// Append adds an item whose HDS root subspace has the filter ids root.
func (p *Pool) Append(it Item, root ...uint64) {
	it.rootAt, it.rootLen = uint32(len(p.filters)), uint32(len(root))
	p.filters = append(p.filters, root...)
	p.Items = append(p.Items, it)
}

// root returns the filter ids of item i's root subspace.
func (p *Pool) root(i int) []uint64 {
	it := &p.Items[i]
	return p.filters[it.rootAt : it.rootAt+it.rootLen]
}

// poolOf is the one adapter from MetaInsights to items: the pool of mis, in
// their order, with names and filters numbered in the order they first
// appear.
func poolOf(mis []*core.MetaInsight) *Pool {
	p := &Pool{Items: make([]Item, 0, len(mis))}
	names := map[string]int32{}
	measures := map[model.Measure]int32{}
	filters := map[model.Filter]uint64{}
	var root []uint64
	for _, mi := range mis {
		h := &mi.HDP.HDS
		root = root[:0]
		for _, f := range h.Anchor.Subspace {
			if h.Kind == model.ExtendSubspace && f.Dim == h.ExtDim {
				continue // the extended filter is not the root's
			}
			root = append(root, ordinal(filters, f))
		}
		p.Append(Item{
			Score:     mi.Score,
			Kind:      h.Kind,
			Type:      mi.HDP.Type,
			ExtDim:    ordinal(names, h.ExtDim),
			Measure:   ordinal(measures, h.Anchor.Measure),
			Breakdown: ordinal(names, h.Anchor.Breakdown),
		}, root...)
	}
	return p
}

// ordinal returns k's number in ids, giving it the next one on first use.
func ordinal[K comparable, V int32 | uint64](ids map[K]V, k K) V {
	v, ok := ids[k]
	if !ok {
		v = V(len(ids))
		ids[k] = v
	}
	return v
}

// all returns the indices 0 … n-1.
func all(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// pick returns the MetaInsights at the indices idx of mis, in idx's order.
func pick(mis []*core.MetaInsight, idx []int) []*core.MetaInsight {
	if idx == nil {
		return nil
	}
	out := make([]*core.MetaInsight, len(idx))
	for i, j := range idx {
		out[i] = mis[j]
	}
	return out
}
