package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Memo computes each key's value at most once and shares it: the one
// once-per-key type under the query cache, the pattern cache and the
// engine's augmented-pair and impact memos. It is safe for concurrent use,
// and its rules are:
//
//   - Get never blocks and never returns a value still being computed; Wait
//     is Get that waits out a computation in flight.
//   - Put writes once: a key that already has a value, or a computation in
//     flight, keeps what it has. Callers only ever put equal values under one
//     key (the Substrate determinism contract), so which one is kept does not
//     matter.
//   - Do runs fn at most once across concurrent callers of one key; the
//     others wait for it and share its value, which is kept. A panic (a
//     custom pattern evaluator's, inside the pattern memo) is re-raised in
//     the caller and every waiter and the key is forgotten, so the next Do
//     tries again. A finished computation clears only its own slot.
//
// Keys are not hashed: the memo's slot function maps each key to a table
// number and a dense index within that table, one slot per key (the session's
// ordinals, DESIGN.md §14), and each table is a Slots directory of chunks
// made on first use. A hit is three atomic loads and takes no lock; a miss
// takes the memo's one mutex to make the slot's chunk or table and to claim
// the slot, and computes outside it.
type Memo[K comparable, V any] struct {
	slot func(K) (table int, index uint64)

	// mu serializes making tables and chunks and every claim of an empty
	// slot (a computation starting, or a Put).
	mu     sync.Mutex
	tables atomic.Pointer[[]*Slots[memoSlot[V]]] // by table number, nil until used
	done   *memoCall[V]                          // marks a slot whose value is kept
	kept   atomic.Int64                          // slots holding a value

	// Callers that waited on another caller's computation, and the time they
	// spent blocked: worker time that went to waiting, not to work. Only the
	// waiting path, which parks the goroutine anyway, pays for them.
	followers atomic.Int64
	waitNanos atomic.Int64
}

// memoSlot is one key's slot: empty (call nil), a kept value (call is the
// memo's done marker; val is written before call and never after), or the
// one computation of the key in flight.
type memoSlot[V any] struct {
	call atomic.Pointer[memoCall[V]]
	val  V
}

// memoCall is one computation in flight; its fields are written by the
// computing caller before wg is released and read by waiters after.
type memoCall[V any] struct {
	wg       sync.WaitGroup
	val      V
	panicked bool
	panicVal any
}

// FlightStats is how often, and for how long in total, callers waited on
// another caller's computation of the same key. Both depend on scheduling.
type FlightStats struct {
	Followers int64
	Wait      time.Duration
}

// Add folds o into s.
func (s *FlightStats) Add(o FlightStats) {
	s.Followers += o.Followers
	s.Wait += o.Wait
}

// NewMemo creates an empty memo whose key k lives in slot index of table
// table, (table, index) = slot(k). slot must give distinct keys distinct
// slots, and should keep indices dense: a table's chunks are made up to the
// largest index it is asked for.
func NewMemo[K comparable, V any](slot func(K) (table int, index uint64)) *Memo[K, V] {
	m := &Memo[K, V]{slot: slot, done: new(memoCall[V])}
	m.tables.Store(new([]*Slots[memoSlot[V]]))
	return m
}

// find returns slot i of table t, or nil when it has not been made.
func (m *Memo[K, V]) find(t int, i uint64) *memoSlot[V] {
	if ts := *m.tables.Load(); t < len(ts) && ts[t] != nil {
		return ts[t].At(i)
	}
	return nil
}

// makeSlot returns slot i of table t, making the table and the chunk when
// they are missing. The caller holds m.mu.
func (m *Memo[K, V]) makeSlot(t int, i uint64) *memoSlot[V] {
	ts := *m.tables.Load()
	if t >= len(ts) || ts[t] == nil {
		grown := make([]*Slots[memoSlot[V]], max(t+1, len(ts)))
		copy(grown, ts)
		grown[t] = new(Slots[memoSlot[V]])
		m.tables.Store(&grown)
		ts = grown
	}
	return ts[t].Make(i)
}

// Get returns the value kept for k, if any.
func (m *Memo[K, V]) Get(k K) (v V, ok bool) {
	if s := m.find(m.slot(k)); s != nil && s.call.Load() == m.done {
		return s.val, true
	}
	return v, false
}

// Wait returns the value kept for k, waiting for it if a computation of k
// is in flight; ok is false when k has neither, or its computation panicked.
func (m *Memo[K, V]) Wait(k K) (v V, ok bool) {
	s := m.find(m.slot(k))
	if s == nil {
		return v, false
	}
	switch c := s.call.Load(); c {
	case nil:
		return v, false
	case m.done:
		return s.val, true
	default:
		c.wg.Wait()
		return c.val, !c.panicked
	}
}

// Put keeps v for k unless k already has a value or a computation in flight.
func (m *Memo[K, V]) Put(k K, v V) {
	t, i := m.slot(k)
	if s := m.find(t, i); s != nil && s.call.Load() != nil {
		return
	}
	m.mu.Lock()
	if s := m.makeSlot(t, i); s.call.Load() == nil {
		s.val = v
		s.call.Store(m.done)
		m.kept.Add(1)
	}
	m.mu.Unlock()
}

// Do returns k's value, running fn to compute it unless it is kept or some
// other caller is already computing it; see Memo for what is kept.
func (m *Memo[K, V]) Do(k K, fn func() V) V {
	t, i := m.slot(k)
	s := m.find(t, i)
	var c *memoCall[V]
	if s != nil {
		c = s.call.Load()
	}
	if c == nil {
		m.mu.Lock()
		s = m.makeSlot(t, i)
		if c = s.call.Load(); c == nil {
			c = &memoCall[V]{}
			c.wg.Add(1)
			s.call.Store(c)
			m.mu.Unlock()
			return m.compute(s, c, fn)
		}
		m.mu.Unlock()
	}
	if c == m.done {
		return s.val
	}
	t0 := time.Now()
	c.wg.Wait()
	m.followers.Add(1)
	m.waitNanos.Add(int64(time.Since(t0)))
	if c.panicked {
		panic(c.panicVal)
	}
	return c.val
}

// compute runs fn as the one computation c of slot s, then keeps its value
// or, after a panic, empties the slot, and releases the waiters. Nobody else
// writes s while c is in flight, so this needs no lock.
func (m *Memo[K, V]) compute(s *memoSlot[V], c *memoCall[V], fn func() V) V {
	returned := false
	defer func() {
		if !returned {
			// fn panicked, or called runtime.Goexit (then the value is nil,
			// and the waiters panic with a *runtime.PanicNilError).
			c.panicked, c.panicVal = true, recover()
		}
		if returned {
			s.val = c.val
			s.call.Store(m.done)
			m.kept.Add(1)
		} else {
			s.call.Store(nil)
		}
		c.wg.Done()
		if c.panicVal != nil {
			panic(c.panicVal)
		}
	}()
	c.val = fn()
	returned = true
	return c.val
}

// Stats reports the memo's occupancy: Entries, the kept values.
func (m *Memo[K, V]) Stats() Stats { return Stats{Entries: m.kept.Load()} }

// Slots reports how many slots the memo's chunks hold, kept or not: with
// Stats' Entries, how densely the keys fill the space their ordinals span.
func (m *Memo[K, V]) Slots() int64 {
	var n int64
	for _, t := range *m.tables.Load() {
		if t != nil {
			n += int64(t.Len())
		}
	}
	return n
}

// FlightStats reports the callers that waited on another caller's
// computation, and how long they waited.
func (m *Memo[K, V]) FlightStats() FlightStats {
	return FlightStats{Followers: m.followers.Load(), Wait: time.Duration(m.waitNanos.Load())}
}

// chunkLen is the number of slots in one chunk of a Slots directory.
const chunkLen = 256

// Slots is an array of T indexed by dense ordinals that grows as a directory
// of fixed-size chunks: a chunk is made the first time one of its slots is
// asked for, and the directory of chunk pointers doubles when an index
// passes its end, so the storage never moves and never grows one allocation
// per slot. Reading a slot is lock-free; making one is not safe for
// concurrent use, and its owner serializes it.
type Slots[T any] struct {
	dir atomic.Pointer[[]atomic.Pointer[[chunkLen]T]]
}

// At returns slot i, or nil when its chunk has not been made.
func (s *Slots[T]) At(i uint64) *T {
	d := s.dir.Load()
	if d == nil || i/chunkLen >= uint64(len(*d)) {
		return nil
	}
	if c := (*d)[i/chunkLen].Load(); c != nil {
		return &c[i%chunkLen]
	}
	return nil
}

// Make returns slot i, making its chunk, and growing the directory, when
// they are missing. A reader holding the directory a growth replaced finds
// every chunk made before it, and no later one.
func (s *Slots[T]) Make(i uint64) *T {
	if p := s.At(i); p != nil {
		return p
	}
	var d []atomic.Pointer[[chunkLen]T]
	if p := s.dir.Load(); p != nil {
		d = *p
	}
	if ci := i / chunkLen; ci >= uint64(len(d)) {
		grown := make([]atomic.Pointer[[chunkLen]T], max(ci+1, 2*uint64(len(d))))
		for j := range d {
			grown[j].Store(d[j].Load())
		}
		s.dir.Store(&grown)
		d = grown
	}
	c := new([chunkLen]T)
	d[i/chunkLen].Store(c)
	return &c[i%chunkLen]
}

// Len returns the number of slots the made chunks hold.
func (s *Slots[T]) Len() int {
	d := s.dir.Load()
	if d == nil {
		return 0
	}
	n := 0
	for j := range *d {
		if (*d)[j].Load() != nil {
			n += chunkLen
		}
	}
	return n
}
