package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Flight is a generic single-flight group: concurrent Do calls with the same
// key coalesce into one execution of fn. The first caller for a key (the
// leader) runs fn; callers that arrive while it is running (followers) block
// until the leader finishes and share its result. Once the leader completes,
// the key is forgotten, so a later Do runs fn again — lasting memoization is
// the cache's job, not the flight group's.
//
// The miner's worker pool uses flight groups around the query and pattern
// caches so that two workers missing the cache on the same key never both
// scan the table: exactly one scan per key executes no matter how many
// workers race for it, which is what keeps executed-query counts identical
// across worker counts (Section 4.2's accounting assumes a query runs at
// most once per unit).
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]

	// Followers and the time they spent blocked on a leader: worker time
	// that went to waiting, not to work. Only the follower path — which
	// parks the goroutine anyway — pays for them.
	followers atomic.Int64
	waitNanos atomic.Int64
}

// FlightStats is how often, and for how long in total, callers of a flight
// group waited on another caller's execution. Both depend on scheduling.
type FlightStats struct {
	Followers int64
	Wait      time.Duration
}

// Add folds o into s.
func (s *FlightStats) Add(o FlightStats) {
	s.Followers += o.Followers
	s.Wait += o.Wait
}

// Stats returns the group's follower totals so far.
func (f *Flight[K, V]) Stats() FlightStats {
	return FlightStats{Followers: f.followers.Load(), Wait: time.Duration(f.waitNanos.Load())}
}

type flightCall[V any] struct {
	done     chan struct{}
	val      V
	panicked bool
	panicVal any
}

// Do returns fn()'s value for key, executing fn at most once across
// concurrent callers. The boolean reports whether this caller was the leader
// (executed fn) rather than a follower (waited for the leader's result).
//
// If fn panics, the panic propagates to the leader *and* to every follower
// (each re-panics with the leader's panic value), and the key is forgotten —
// a follower blocked on a panicking leader must not deadlock, and the
// miner's per-worker recover relies on every worker observing the same
// deterministic panic for the same unit.
func (f *Flight[K, V]) Do(key K, fn func() V) (V, bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[K]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		t0 := time.Now()
		<-c.done
		f.followers.Add(1)
		f.waitNanos.Add(int64(time.Since(t0)))
		if c.panicked {
			panic(c.panicVal)
		}
		return c.val, false
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			c.panicked, c.panicVal = true, r
		}
		close(c.done)
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		if c.panicked {
			panic(c.panicVal)
		}
	}()
	c.val = fn()
	return c.val, true
}
