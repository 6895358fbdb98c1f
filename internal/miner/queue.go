package miner

import (
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
// candidate value, and lives in the window entry that dispatched it.
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
// an anchor data scope, under one pattern type. It is a value from the
// worker that finds it to the row that keeps it, and holds what the worker
// that mines it needs to build the HDS: the anchor scope as its unit's id
// (its subspace's handle ordinal and its breakdown index) and the measure's
// index in the engine's measure set, and the HDS size. It holds no pointer.
type miCandidate struct {
	key     candKey
	anchor  cache.UnitID
	impact  float64 // Impact_HDS
	measure int32   // anchor measure's index in the engine's measure set
	n       int32   // HDS size: its scope count
}

// miUnit is an admitted candidate waiting for its turn: the pending
// MetaInsight units are a heap of these values, so admitting one allocates
// nothing. A worker receives it as the workUnit its window entry holds.
type miUnit struct {
	priority float64
	seq      int64
	cand     miCandidate
}

// place is a unit's position in the canonical order (Miner.precedes).
type place struct {
	mi       bool // a MetaInsight unit
	priority float64
	seq      int64
}

func (u *workUnit) place() place { return place{u.kind == kindMetaInsight, u.priority, u.seq} }
func (u *miUnit) place() place   { return place{true, u.priority, u.seq} }

// row is one qualified MetaInsight candidate as the run keeps it: the
// candidate and its score. It holds no pointer, so a run's rows are one
// array the collector does not scan; the MetaInsight a row stands for is
// built only when a caller reads it (Miner.build).
type row struct {
	miCandidate
	score float64
}

// scopeRef is the interned form of one data scope: the subspace handle, the
// breakdown's table dimension index and the measure's index in the engine's
// measure set.
type scopeRef struct {
	h       *engine.Handle
	bdim    int
	measure int
}

// canonHeap is a binary heap ordered by before. The miner keeps three: the
// pending work units, the pending MetaInsight candidates (values) and the
// speculation window of dispatched units, and all order by
// Miner.precedes, the one definition of the processing order. It sifts in
// place, as container/heap does, without boxing its items.
type canonHeap[T any] struct {
	items  []T
	before func(a, b T) bool
}

func (h *canonHeap[T]) Len() int { return len(h.items) }

func (h *canonHeap[T]) push(x T) {
	h.items = append(h.items, x)
	for j := len(h.items) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.before(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *canonHeap[T]) pop() T {
	n := len(h.items) - 1
	x := h.items[0]
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.before(h.items[r], h.items[j]) {
			j = r
		}
		if !h.before(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	return x
}

// top returns the first item in order without removing it; the zero T when
// the heap is empty.
func (h *canonHeap[T]) top() T {
	if len(h.items) == 0 {
		var zero T
		return zero
	}
	return h.items[0]
}
