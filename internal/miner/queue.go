package miner

import (
	"container/heap"

	"metainsight/internal/core"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
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
// model values (subspace, breakdown, hds) are the unit's external identity —
// what traces and checkpoints render; the handles beside them are what the
// hot path navigates, re-derived by attach after a checkpoint decode.
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
	hds       core.HDS
	scopes    []scopeRef // beside hds.Scopes, entry for entry; shared, read-only
	ptype     pattern.Type
	impactHDS float64
	miKey     string // identity key for commit-time deduplication
}

// scopeRef is the interned form of one data scope's unit: the subspace
// handle and the breakdown's table dimension index.
type scopeRef struct {
	h    *engine.Handle
	bdim int
}

// workQueue abstracts the compute-unit queue so the paper's priority-queue
// vs FIFO-queue ablation (Figure 6) is a one-flag swap.
type workQueue interface {
	Push(u *workUnit)
	Pop() *workUnit
	Peek() *workUnit
	Len() int
	// Items returns the queued units in no particular order, without
	// consuming them. Checkpoint snapshots serialize pending work through it
	// (sorting by seq, which is a total order over live units).
	Items() []*workUnit
}

// priorityQueue orders units by priority descending, breaking ties by
// emission order, using container/heap.
type priorityQueue struct {
	items unitHeap
}

func newPriorityQueue() *priorityQueue { return &priorityQueue{} }

func (q *priorityQueue) Push(u *workUnit) { heap.Push(&q.items, u) }

func (q *priorityQueue) Pop() *workUnit {
	if len(q.items) == 0 {
		return nil
	}
	return heap.Pop(&q.items).(*workUnit)
}

func (q *priorityQueue) Peek() *workUnit {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

func (q *priorityQueue) Len() int { return len(q.items) }

func (q *priorityQueue) Items() []*workUnit { return append([]*workUnit(nil), q.items...) }

type unitHeap []*workUnit

func (h unitHeap) Len() int { return len(h) }
func (h unitHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h unitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *unitHeap) Push(x any)   { *h = append(*h, x.(*workUnit)) }
func (h *unitHeap) Pop() any {
	old := *h
	n := len(old)
	u := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return u
}

// fifoQueue is the baseline first-in-first-out queue used by the ablation.
// It is implemented as a ring over a growable slice.
type fifoQueue struct {
	items []*workUnit
	head  int
}

func newFIFOQueue() *fifoQueue { return &fifoQueue{} }

func (q *fifoQueue) Push(u *workUnit) { q.items = append(q.items, u) }

func (q *fifoQueue) Pop() *workUnit {
	if q.head >= len(q.items) {
		return nil
	}
	u := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append([]*workUnit(nil), q.items[q.head:]...)
		q.head = 0
	}
	return u
}

func (q *fifoQueue) Peek() *workUnit {
	if q.head >= len(q.items) {
		return nil
	}
	return q.items[q.head]
}

func (q *fifoQueue) Len() int { return len(q.items) - q.head }

func (q *fifoQueue) Items() []*workUnit { return append([]*workUnit(nil), q.items[q.head:]...) }
