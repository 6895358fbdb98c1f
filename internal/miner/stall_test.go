package miner

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// wideTable is a table whose search frontier is wide at depth one: three
// categorical dimensions of 40 values each plus a month, so the root
// expansion leaves 132 child subspaces queued behind whichever of them is the
// canonical head — far more than 8 × Workers at any worker count tested here.
// Every value carries about 1/40 of the rows (well above MinSubspaceImpact)
// and the months follow a valley, so patterns and MetaInsight units exist.
func wideTable() *dataset.Table {
	b := dataset.NewBuilder("wide", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "C", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "Sales", Kind: model.KindMeasure},
	})
	valley := []float64{100, 70, 40, 10, 40, 70, 100, 100, 100, 100, 100, 100}
	x := uint64(1)
	next := func(n int) int { // xorshift: the table is the same on every run
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := 0; i < 6000; i++ {
		a, bb, c, m := next(40), next(40), next(40), next(12)
		b.AddRow([]string{fmt.Sprintf("a%02d", a), fmt.Sprintf("b%02d", bb), fmt.Sprintf("c%02d", c), monthNames[m]},
			[]float64{valley[m] + float64(a%5)})
	}
	return b.Build()
}

// gatedSubstrate holds back one unit scan until it has seen unit scans under
// more than release non-empty subspaces. Each compute unit that can exist
// while the held one has not committed scans under one subspace only, so the
// number of distinct subspaces seen is a lower bound on the number of units
// that ran while the held one could not finish.
type gatedSubstrate struct {
	*engine.ColumnarSubstrate
	hold    heldScan
	release int
	gate    chan struct{}
	open    sync.Once

	mu   sync.Mutex
	seen map[string]bool
}

// heldScan names the scan a gatedSubstrate holds back (its subspace key and
// breakdown dimension index) and the commit index of the unit that issues it.
type heldScan struct {
	subspace string
	bdim     int
	commit   int64
}

func newGatedSubstrate(tab *dataset.Table, hold heldScan, release int) *gatedSubstrate {
	return &gatedSubstrate{
		ColumnarSubstrate: engine.NewColumnarSubstrate(tab),
		hold:              hold, release: release,
		gate: make(chan struct{}), seen: make(map[string]bool),
	}
}

func (g *gatedSubstrate) openGate() { g.open.Do(func() { close(g.gate) }) }

func (g *gatedSubstrate) ScanUnitAt(h *engine.Handle, bdim int) (cache.Unit, int) {
	switch key := h.Key(); {
	case key == g.hold.subspace && bdim == g.hold.bdim:
		<-g.gate
	case h.Len() > 0:
		g.mu.Lock()
		g.seen[key] = true
		n := len(g.seen)
		g.mu.Unlock()
		if n > g.release {
			g.openGate()
		}
	}
	return g.ColumnarSubstrate.ScanUnitAt(h, bdim)
}

// firstChildScan returns the first scan under a non-empty subspace that a
// one-worker run issues, and the commit index of the unit issuing it. At one
// worker units run in canonical order, so no unit before that one scans under
// a non-empty subspace at any worker count (what a unit asks for does not
// depend on the schedule), and every unit after it waits, at any worker
// count, for its commit. The table's other child subspaces are all queued
// behind it by then: they come from the root expansion.
func firstChildScan(t *testing.T, tab *dataset.Table) heldScan {
	t.Helper()
	ob := obs.New(obs.Options{TraceCapacity: 1 << 16})
	rec := &recordingSubstrate{ColumnarSubstrate: engine.NewColumnarSubstrate(tab), ob: ob}
	runMiner(t, tab, func(c *Config, e *engine.Config) {
		e.Substrate = rec
		c.Observer = ob
	})
	if rec.first.subspace == "" {
		t.Fatal("one-worker run scanned no child subspace")
	}
	return rec.first
}

// recordingSubstrate notes the first scan under a non-empty subspace. It is
// only used at one worker, where the dispatcher is waiting for the worker
// that calls it: the pops traced so far are the commits so far.
type recordingSubstrate struct {
	*engine.ColumnarSubstrate
	ob    *obs.Observer
	first heldScan
}

func (r *recordingSubstrate) ScanUnitAt(h *engine.Handle, bdim int) (cache.Unit, int) {
	if r.first.subspace == "" && h.Len() > 0 {
		r.first = heldScan{subspace: h.Key(), bdim: bdim, commit: 1}
		for _, ev := range r.ob.Trace().Events() {
			if ev.Kind == obs.EvPop {
				r.first.commit++
			}
		}
	}
	return r.ColumnarSubstrate.ScanUnitAt(h, bdim)
}

// TestSpeculationRunsPastASlowHead holds the canonical head in its scan and
// lets it go only once more than 8 × Workers other units have run behind it.
// A window that counts finished entries against the same 8 × Workers bound as
// in-flight ones can never get there: it fills with finished units, the
// dispatcher blocks with work queued and workers idle, and the run deadlocks
// against the gate. Nothing here depends on a clock except the verdict that a
// deadlock has happened.
func TestSpeculationRunsPastASlowHead(t *testing.T) {
	tab := wideTable()
	head := firstChildScan(t, tab)
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		var sub engine.Substrate
		var gated *gatedSubstrate
		if workers > 1 {
			// At one worker nothing runs behind the head; that run is the
			// reference the gated ones must reproduce.
			gated = newGatedSubstrate(tab, head, 8*workers)
			sub = gated
		}
		done := make(chan *Result, 1)
		go func() {
			done <- runMiner(t, tab, func(c *Config, e *engine.Config) {
				c.Workers = workers
				e.Substrate = sub
			})
		}()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(30 * time.Second):
			gated.mu.Lock()
			n := len(gated.seen)
			gated.mu.Unlock()
			gated.openGate()
			<-done
			t.Fatalf("workers=%d: the run stalled behind its head: %d units ran while it was held, the gate opens after %d",
				workers, n, gated.release)
		}
		if ref == nil {
			ref = res
			continue
		}
		assertSameOrderedKeys(t, fmt.Sprintf("workers=%d", workers), ref, res)
		assertSameStats(t, fmt.Sprintf("workers=%d", workers), ref.Stats, res.Stats)
	}
}
