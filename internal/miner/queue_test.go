package miner

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestPriorityQueueOrdersByImpactThenSeq(t *testing.T) {
	m := &Miner{cfg: Config{UsePriorityQueues: true}}
	q := canonHeap[*workUnit]{before: m.canonicalBefore}
	q.push(&workUnit{priority: 0.5, seq: 1})
	q.push(&workUnit{priority: 0.9, seq: 2})
	q.push(&workUnit{priority: 0.9, seq: 3})
	q.push(&workUnit{priority: 0.1, seq: 4})
	wantSeq := []int64{2, 3, 1, 4}
	for i, want := range wantSeq {
		u := q.pop()
		if u == nil || u.seq != want {
			t.Fatalf("pop %d: got %+v, want seq %d", i, u, want)
		}
	}
	if q.Len() != 0 || q.top() != nil {
		t.Error("drained queue should be empty")
	}
}

func TestFIFOQueueOrder(t *testing.T) {
	m := &Miner{cfg: Config{UsePriorityQueues: false}}
	q := canonHeap[*workUnit]{before: m.canonicalBefore}
	for i := int64(0); i < 5; i++ {
		q.push(&workUnit{priority: float64(5 - i), seq: i})
	}
	for i := int64(0); i < 5; i++ {
		u := q.pop()
		if u == nil || u.seq != i {
			t.Fatalf("FIFO pop %d returned seq %v", i, u)
		}
	}
	if q.Len() != 0 || q.top() != nil {
		t.Error("drained FIFO misbehaves")
	}
}

// TestQueueDrainsInCanonicalOrder pins the queue to the one definition of the
// processing order: under every UsePriorityQueues × PatternsFirst setting,
// units of all three kinds with tied priorities, pushed in shuffled order, pop
// in exactly the order a stable sort by canonicalBefore gives.
func TestQueueDrainsInCanonicalOrder(t *testing.T) {
	for _, prio := range []bool{true, false} {
		for _, pf := range []bool{false, true} {
			t.Run(fmt.Sprintf("priority=%v/patterns-first=%v", prio, pf), func(t *testing.T) {
				m := &Miner{cfg: Config{UsePriorityQueues: prio, PatternsFirst: pf}}
				r := rand.New(rand.NewSource(35))
				units := make([]*workUnit, 200)
				for i := range units {
					units[i] = &workUnit{
						kind:     unitKind(i % 3),
						priority: []float64{0.1, 0.5, 0.9}[r.Intn(3)],
						seq:      int64(i),
					}
				}
				r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
				q := canonHeap[*workUnit]{before: m.canonicalBefore}
				for _, u := range units {
					q.push(u)
				}
				want := append([]*workUnit(nil), units...)
				sort.SliceStable(want, func(i, j int) bool { return m.canonicalBefore(want[i], want[j]) })

				var prev *workUnit
				for i, w := range want {
					if q.top() != w {
						t.Fatalf("top %d: got seq %d, want seq %d", i, q.top().seq, w.seq)
					}
					u := q.pop()
					if prev != nil {
						sameSide := (u.kind == kindMetaInsight) == (prev.kind == kindMetaInsight)
						if !prio && u.seq < prev.seq && (!pf || sameSide) {
							t.Fatalf("FIFO popped seq %d after %d", u.seq, prev.seq)
						}
						if pf && !sameSide && u.kind != kindMetaInsight {
							t.Fatalf("patterns-first popped a %s unit after a MetaInsight unit", u.kind)
						}
					}
					prev = u
				}
				if q.Len() != 0 || q.top() != nil {
					t.Fatal("drained queue is not empty")
				}
			})
		}
	}
}

func TestPriorityQueueRandomizedHeapProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := &Miner{cfg: Config{UsePriorityQueues: true}}
	q := canonHeap[*workUnit]{before: m.canonicalBefore}
	n := 500
	for i := 0; i < n; i++ {
		q.push(&workUnit{priority: r.Float64(), seq: int64(i)})
	}
	prev := 2.0
	for i := 0; i < n; i++ {
		u := q.pop()
		if u.priority > prev {
			t.Fatalf("heap order violated: %v after %v", u.priority, prev)
		}
		prev = u.priority
	}
}
