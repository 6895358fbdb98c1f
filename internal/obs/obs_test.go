package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(2.5)
	r.Gauge("g").Add(0.5)
	h := r.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	s := r.Snapshot()
	if s.Counters["a"] != 4 {
		t.Errorf("counter a = %d, want 4", s.Counters["a"])
	}
	if s.Gauges["g"] != 3.0 {
		t.Errorf("gauge g = %v, want 3", s.Gauges["g"])
	}
	hs := s.Histograms["h"]
	if hs.Count != 3 || hs.Sum != 55.5 {
		t.Errorf("histogram count=%d sum=%v, want 3/55.5", hs.Count, hs.Sum)
	}
	want := []int64{1, 1, 1} // ≤1, ≤10, overflow
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

// TestSnapshotStableOrdering is the registry-ordering regression test: the
// text rendering lists names sorted, and the JSON encoding is byte-identical
// across snapshots of identical state regardless of registration order.
func TestSnapshotStableOrdering(t *testing.T) {
	build := func(names []string) Snapshot {
		r := NewRegistry()
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
			r.Gauge("g." + n).Set(float64(len(n)))
		}
		return r.Snapshot()
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})

	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("JSON differs by registration order:\n%s\n%s", aj, bj)
	}

	text := a.Text()
	zi := strings.Index(text, "zeta")
	ai := strings.Index(text, "alpha")
	mi := strings.Index(text, "mid")
	if ai < 0 || mi < 0 || zi < 0 || !(ai < mi && mi < zi) {
		t.Errorf("text not name-sorted:\n%s", text)
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
}

// TestTraceRingOverflow is the ring-overflow regression test: recording more
// events than capacity keeps the newest events in order, counts the
// overwritten ones, and keeps Seq globally increasing.
func TestTraceRingOverflow(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(EvPop, "u", "", float64(i))
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	for i, ev := range evs {
		wantSeq := int64(6 + i)
		if ev.Seq != wantSeq {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Cost != float64(6+i) {
			t.Errorf("event %d Cost = %v, want %d", i, ev.Cost, 6+i)
		}
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.Record(EvQueryExec, "s/b", "", 5.5)
	tr.Record(EvStore, "key", "score=0.9", 0)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Cost != 5.5 || ev.Unit != "s/b" {
		t.Errorf("round-trip lost fields: %+v", ev)
	}
	if !strings.Contains(lines[0], `"kind":"query-exec"`) {
		t.Errorf("kind not encoded as wire name: %s", lines[0])
	}
}

func TestPhases(t *testing.T) {
	var p Phases
	p.Add(PhaseExpand, 2*time.Second)
	p.Add(PhaseExpand, time.Second)
	p.Add(PhaseRank, 500*time.Millisecond)
	secs := p.Seconds()
	if secs["expand"] != 3.0 || secs["rank"] != 0.5 {
		t.Errorf("Seconds = %v", secs)
	}
	if _, ok := secs["commit"]; ok {
		t.Error("zero phase should be omitted")
	}
}

// TestNilObserverIsInert verifies every facade method is a no-op on nil —
// the property that lets instrumented hot paths skip conditionals.
func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	if o.Enabled() || o.Tracing() {
		t.Error("nil observer reports enabled")
	}
	o.Count("x", 1)
	o.SetGauge("x", 1)
	o.Observe("x", []float64{1}, 0.5)
	o.Event(EvPop, "u", "", 0)
	o.Phase(PhaseCommit, time.Second)
	s := o.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.PhaseSeconds) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
	if o.Trace() != nil {
		t.Error("nil observer exposes instruments")
	}
}

func TestObserverSnapshotIncludesTraceTotals(t *testing.T) {
	o := New(Options{TraceCapacity: 2})
	o.Event(EvPop, "a", "", 0)
	o.Event(EvPop, "b", "", 0)
	o.Event(EvPop, "c", "", 0)
	s := o.Snapshot()
	if s.Counters["trace.events"] != 3 {
		t.Errorf("trace.events = %d, want 3", s.Counters["trace.events"])
	}
	if s.Counters["trace.dropped"] != 1 {
		t.Errorf("trace.dropped = %d, want 1", s.Counters["trace.dropped"])
	}
}
