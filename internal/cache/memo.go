package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
)

// Memo computes each key's value at most once and shares it: the one
// once-per-key type under the query cache, the pattern cache and the
// engine's augmented-pair memo. It is safe for concurrent use, and its rules
// are:
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
//     tries again. A finished computation removes only its own entry.
//
// Keys are spread over 16 lock shards (comfortably more than the paper's 8
// workers) by the runtime's map hash under a per-process seed.
type Memo[K comparable, V any] struct {
	seed   maphash.Seed
	shards [16]memoShard[K, V]

	// Callers that waited on another caller's computation, and the time they
	// spent blocked: worker time that went to waiting, not to work. Only the
	// waiting path, which parks the goroutine anyway, pays for them.
	followers atomic.Int64
	waitNanos atomic.Int64
}

type memoShard[K comparable, V any] struct {
	mu      sync.RWMutex
	entries map[K]memoEntry[V]
	kept    int64 // entries holding a value rather than a computation
}

// memoEntry is a kept value, stored inline, or (call != nil) the one
// computation of the key in flight.
type memoEntry[V any] struct {
	val  V
	call *memoCall[V]
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

// NewMemo creates an empty memo.
func NewMemo[K comparable, V any]() *Memo[K, V] {
	m := &Memo[K, V]{seed: maphash.MakeSeed()}
	for i := range m.shards {
		m.shards[i].entries = make(map[K]memoEntry[V])
	}
	return m
}

func (m *Memo[K, V]) shard(k K) *memoShard[K, V] {
	return &m.shards[maphash.Comparable(m.seed, k)%uint64(len(m.shards))]
}

// Get returns the value kept for k, if any.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	s := m.shard(k)
	s.mu.RLock()
	e, ok := s.entries[k]
	s.mu.RUnlock()
	return e.val, ok && e.call == nil
}

// Wait returns the value kept for k, waiting for it if a computation of k
// is in flight; ok is false when k has neither, or its computation panicked.
func (m *Memo[K, V]) Wait(k K) (v V, ok bool) {
	s := m.shard(k)
	s.mu.RLock()
	e, ok := s.entries[k]
	s.mu.RUnlock()
	if !ok || e.call == nil {
		return e.val, ok
	}
	e.call.wg.Wait()
	return e.call.val, !e.call.panicked
}

// Put keeps v for k unless k already has a value or a computation in flight.
func (m *Memo[K, V]) Put(k K, v V) {
	s := m.shard(k)
	s.mu.Lock()
	if _, ok := s.entries[k]; !ok {
		s.entries[k] = memoEntry[V]{val: v}
		s.kept++
	}
	s.mu.Unlock()
}

// Do returns k's value, running fn to compute it unless it is kept or some
// other caller is already computing it; see Memo for what is kept.
func (m *Memo[K, V]) Do(k K, fn func() V) V {
	s := m.shard(k)
	s.mu.RLock()
	e, ok := s.entries[k]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if e, ok = s.entries[k]; !ok {
			c := &memoCall[V]{}
			c.wg.Add(1)
			s.entries[k] = memoEntry[V]{call: c}
			s.mu.Unlock()
			return m.compute(s, k, c, fn)
		}
		s.mu.Unlock()
	}
	if e.call == nil {
		return e.val
	}
	t0 := time.Now()
	e.call.wg.Wait()
	m.followers.Add(1)
	m.waitNanos.Add(int64(time.Since(t0)))
	if e.call.panicked {
		panic(e.call.panicVal)
	}
	return e.call.val
}

// compute runs fn as k's one computation c, then keeps its value or, after
// a panic, forgets the key, and releases the waiters.
func (m *Memo[K, V]) compute(s *memoShard[K, V], k K, c *memoCall[V], fn func() V) V {
	returned := false
	defer func() {
		if !returned {
			// fn panicked, or called runtime.Goexit (then the value is nil,
			// and the waiters panic with a *runtime.PanicNilError).
			c.panicked, c.panicVal = true, recover()
		}
		s.mu.Lock()
		if returned {
			s.entries[k] = memoEntry[V]{val: c.val}
			s.kept++
		} else {
			delete(s.entries, k)
		}
		s.mu.Unlock()
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
func (m *Memo[K, V]) Stats() Stats {
	var n int64
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += s.kept
		s.mu.RUnlock()
	}
	return Stats{Entries: n}
}

// FlightStats reports the callers that waited on another caller's
// computation, and how long they waited.
func (m *Memo[K, V]) FlightStats() FlightStats {
	return FlightStats{Followers: m.followers.Load(), Wait: time.Duration(m.waitNanos.Load())}
}
