package miner

import (
	"container/heap"

	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// unitKind distinguishes the three kinds of compute units flowing through
// the mining procedure.
type unitKind int

const (
	// kindExpand explores one subspace: it emits the subspace's data-pattern
	// compute units and its child subspaces (the search functionality of
	// Figure 3).
	kindExpand unitKind = iota
	// kindDataPattern evaluates all measures and pattern types on one
	// (subspace, breakdown) pair — the data pattern mining module.
	kindDataPattern
	// kindMetaInsight evaluates one HDP for a MetaInsight — the MetaInsight
	// mining module.
	kindMetaInsight
)

// String returns the stable trace label of the kind.
func (k unitKind) String() string {
	switch k {
	case kindExpand:
		return "expand"
	case kindDataPattern:
		return "data-pattern"
	case kindMetaInsight:
		return "metainsight"
	default:
		return "unit(?)"
	}
}

// phase maps a unit kind to its observability phase: subspace expansion vs
// pattern/MetaInsight evaluation.
func (k unitKind) phase() obs.Phase {
	if k == kindExpand {
		return obs.PhaseExpand
	}
	return obs.PhaseEvaluate
}

// workUnit is a compute unit. Exactly the fields for its kind are set. The
// model values (subspace, breakdown) are the unit's external identity — what
// traces render; the handles beside them are what the hot path navigates. A
// MetaInsight unit is a candidate the dispatcher admitted: it carries the
// candidate value, and the worker that mines it builds its HDS.
type workUnit struct {
	kind     unitKind
	priority float64 // impact-based priority (higher first)
	seq      int64   // emission order; tie-breaker and FIFO order

	// kindExpand / kindDataPattern
	subspace model.Subspace
	handle   *engine.Handle // interned subspace
	impact   float64        // Impact of subspace (Equation 2)
	// kindExpand
	maxDimIdx int // last dimension index already filtered; children add beyond it
	// kindDataPattern
	breakdown string
	bdim      int // breakdown's table dimension index

	// kindMetaInsight
	cand miCandidate
}

// candKey is the identity of a MetaInsight candidate in ordinals, the parts
// core.HDSKey renders for its kind and nothing else: two candidates have one
// key exactly when their identity keys (HDS key and pattern type) are equal,
// so the dispatcher dedups on it without building a string. scope packs the
// root subspace's handle ordinal with the breakdown index (subspace and
// measure extension) and the anchor measure's ordinal (subspace and breakdown
// extension), the parts a kind's key omits left zero; ext is the extended
// dimension's index (subspace extension); kind is the model.ExtensionKind and
// ptype the pattern.Type. The key is two words and holds no pointer, so the
// dedup set is a map the collector does not scan.
type candKey struct {
	scope cache.ScopeID
	ext   uint16
	kind  uint8
	ptype int32
}

// miCandidate is one MetaInsight compute-unit candidate: an HDS extended from
// an anchor data scope, under one pattern type. It stays a value until the
// dispatcher admits it, and holds what the worker that mines it needs to
// build the HDS: the anchor scope as its handle, breakdown index and measure
// index, and the HDS size.
type miCandidate struct {
	key     candKey
	anchor  *engine.Handle
	impact  float64 // Impact_HDS
	bdim    int32   // anchor breakdown's table dimension index
	measure int32   // anchor measure's index in the engine's measure set
	n       int32   // HDS size: its scope count
}

// scopeRef is the interned form of one data scope's unit: the subspace
// handle and the breakdown's table dimension index.
type scopeRef struct {
	h    *engine.Handle
	bdim int
}

// canonHeap is a binary heap ordered by before. The miner keeps two: the
// pending queue of work units and the speculation window of dispatched ones,
// and both order by Miner.canonicalBefore, the one definition of the
// processing order. container/heap does the sifting.
type canonHeap[T any] struct {
	items  []T
	before func(a, b T) bool
}

func (h *canonHeap[T]) Len() int           { return len(h.items) }
func (h *canonHeap[T]) Less(i, j int) bool { return h.before(h.items[i], h.items[j]) }
func (h *canonHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *canonHeap[T]) Push(x any)         { h.items = append(h.items, x.(T)) }
func (h *canonHeap[T]) Pop() any {
	n := len(h.items) - 1
	x := h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	return x
}

func (h *canonHeap[T]) push(x T) { heap.Push(h, x) }
func (h *canonHeap[T]) pop() T   { return heap.Pop(h).(T) }

// top returns the first item in order without removing it; the zero T when
// the heap is empty.
func (h *canonHeap[T]) top() T {
	if len(h.items) == 0 {
		var zero T
		return zero
	}
	return h.items[0]
}
