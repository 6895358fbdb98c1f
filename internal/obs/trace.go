package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventKind classifies one trace event. The vocabulary covers the compute
// unit lifecycle of the mining procedure: unit commit (pop), query
// execution, cache hits and misses, pattern evaluation, the two prunings,
// identity deduplication, MetaInsight storage, and run termination.
type EventKind uint8

const (
	// EvPop marks one compute unit committing in canonical order.
	EvPop EventKind = iota
	// EvQueryExec marks one executed (scanning) query, basic or augmented.
	EvQueryExec
	// EvCacheHit marks one logical lookup served by a cache.
	EvCacheHit
	// EvCacheMiss marks one logical lookup that missed a cache.
	EvCacheMiss
	// EvPatternEval marks one data-pattern evaluation (a pattern-cache miss).
	EvPatternEval
	// EvPrune marks a unit cut by Pruning 1 or discarded by Pruning 2.
	EvPrune
	// EvDedup marks a MetaInsight candidate dropped by identity dedup.
	EvDedup
	// EvStore marks a new MetaInsight entering the result set.
	EvStore
	// EvBudgetStop marks the run stopping on budget exhaustion.
	EvBudgetStop
	// EvCancel marks the run stopping on context cancellation.
	EvCancel
	// EvUnitPanic marks a compute unit whose evaluation panicked; the worker
	// recovered and the unit was committed as failed (detail = panic value).
	EvUnitPanic
)

var eventKindNames = [...]string{
	EvPop:         "pop",
	EvQueryExec:   "query-exec",
	EvCacheHit:    "cache-hit",
	EvCacheMiss:   "cache-miss",
	EvPatternEval: "pattern-eval",
	EvPrune:       "prune",
	EvDedup:       "dedup",
	EvStore:       "store",
	EvBudgetStop:  "budget-stop",
	EvCancel:      "cancel",
	EvUnitPanic:   "unit-panic",
}

// String returns the stable wire name of the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// MarshalJSON encodes the kind as its stable wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a wire name back into a kind, so consumers can
// round-trip the -trace JSONL stream.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range eventKindNames {
		if n == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", name)
}

// Event is one structured trace record. Seq, Kind, Unit, Detail and Cost are
// deterministic for a deterministic run (events are recorded in the miner's
// canonical commit order); WallNanos is the run-relative wall-clock time the
// event was recorded at and naturally varies between runs.
type Event struct {
	Seq       int64     `json:"seq"`
	Kind      EventKind `json:"kind"`
	Unit      string    `json:"unit,omitempty"`
	Detail    string    `json:"detail,omitempty"`
	Cost      float64   `json:"cost,omitempty"`
	WallNanos int64     `json:"wall_ns"`
}

// Trace is a fixed-capacity ring buffer of events. When full, the oldest
// events are overwritten and counted as dropped; Seq keeps globally
// increasing, so a consumer can detect the gap. Trace is safe for concurrent
// use, but the miner only records from its serial commit path, which is what
// makes the recorded order meaningful.
type Trace struct {
	mu      sync.Mutex
	buf     []Event
	size    int // number of valid events in buf
	head    int // index of the oldest event
	seq     int64
	dropped int64
	epoch   time.Time
}

// NewTrace creates a trace ring holding up to capacity events.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity), epoch: time.Now()}
}

// Record appends one event, overwriting the oldest if the ring is full.
func (t *Trace) Record(kind EventKind, unit, detail string, cost float64) {
	wall := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	ev := Event{Seq: t.seq, Kind: kind, Unit: unit, Detail: detail, Cost: cost, WallNanos: wall}
	t.seq++
	if t.size == len(t.buf) {
		t.buf[t.head] = ev
		t.head = (t.head + 1) % len(t.buf)
		t.dropped++
	} else {
		t.buf[(t.head+t.size)%len(t.buf)] = ev
		t.size++
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.size)
	for i := 0; i < t.size; i++ {
		out[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	return out
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Dropped returns how many events were overwritten by ring overflow.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL writes the retained events as one JSON object per line — the
// cmd/metainsight -trace output format.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
