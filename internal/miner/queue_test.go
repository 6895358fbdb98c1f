package miner

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"metainsight/internal/engine"
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

// TestDisciplinesAreWorkerInvariant mines the planted table under a cost
// budget in each queue discipline other than the default merged priority
// order — FIFO, PatternsFirst, and both — and requires the results, the
// statistics and the commit-order trace to be the same at 1, 2, 4 and 8
// workers: the disciplines reorder the canonical order, and the speculation
// window must commit in it whatever order the workers finish in.
func TestDisciplinesAreWorkerInvariant(t *testing.T) {
	for _, d := range []struct {
		name       string
		discipline func(*Config)
	}{
		{"fifo", func(c *Config) { c.UsePriorityQueues = false }},
		{"patterns-first", func(c *Config) { c.PatternsFirst = true }},
		{"fifo+patterns-first", func(c *Config) {
			c.UsePriorityQueues = false
			c.PatternsFirst = true
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			run := func(workers int) (*Result, []traceLine) {
				return tracedRun(t, workers, func(c *Config, e *engine.Config) {
					c.Budget = Budget{Cost: 400}
					d.discipline(c)
				})
			}
			ref, refTrace := run(1)
			if commitTotal(ref.Stats) < 50 {
				t.Fatalf("planted workload too small: %d commits", commitTotal(ref.Stats))
			}
			for _, w := range []int{2, 4, 8} {
				res, tr := run(w)
				if miJSON(t, res) != miJSON(t, ref) {
					t.Fatalf("workers=%d: results differ from workers=1", w)
				}
				if res.Stats != ref.Stats {
					t.Fatalf("workers=%d: stats differ:\n got  %+v\n want %+v", w, res.Stats, ref.Stats)
				}
				if len(tr) != len(refTrace) {
					t.Fatalf("workers=%d: trace length %d != %d", w, len(tr), len(refTrace))
				}
				for i := range tr {
					if tr[i] != refTrace[i] {
						t.Fatalf("workers=%d: trace diverges at %d: %+v vs %+v", w, i, tr[i], refTrace[i])
					}
				}
			}
		})
	}
}
