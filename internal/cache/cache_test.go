package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metainsight/internal/model"
)

func unit(sub, breakdown string, groups int) *Unit {
	u := &Unit{
		Key:  UnitKey{Subspace: sub, Breakdown: breakdown},
		Sums: map[string][]float64{}, Mins: map[string][]float64{}, Maxs: map[string][]float64{},
	}
	for i := 0; i < groups; i++ {
		u.GroupKeys = append(u.GroupKeys, fmt.Sprintf("g%d", i))
		u.Counts = append(u.Counts, 1)
	}
	u.Sums["V"] = make([]float64, groups)
	u.Mins["V"] = make([]float64, groups)
	u.Maxs["V"] = make([]float64, groups)
	return u
}

// TestQueryCachePutGet: a stored unit is found under its own key and no
// other, and the cache reports its occupancy — never a hit/miss count, which
// is the miner's canonical accounting and not the cache's.
func TestQueryCachePutGet(t *testing.T) {
	c := NewQueryCache(true)
	if _, ok := c.Peek("{*}", "Month"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(unit("{*}", "Month", 12))
	u, ok := c.Peek("{*}", "Month")
	if !ok || len(u.GroupKeys) != 12 {
		t.Fatal("stored unit not returned")
	}
	if _, ok := c.Peek("{*}", "City"); ok {
		t.Fatal("wrong breakdown hit")
	}
	if st := c.Stats(); st != (Stats{Entries: 1}) {
		t.Errorf("stats = %+v, want occupancy only", st)
	}
}

func TestDisabledQueryCache(t *testing.T) {
	c := NewQueryCache(false)
	c.Put(unit("a", "b", 3))
	if _, ok := c.Peek("a", "b"); ok {
		t.Fatal("disabled cache returned a unit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats = %+v", st)
	}
	if shardBytes(c) != 0 {
		t.Error("disabled cache reports bytes")
	}
	if c.Enabled() {
		t.Error("Enabled() = true")
	}
}

// shardBytes sums the per-shard byte sizes ShardStats reports.
func shardBytes(c *QueryCache) int64 {
	var n int64
	for _, s := range c.ShardStats() {
		n += s.Bytes
	}
	return n
}

func TestQueryCacheByteAccountingOnReplace(t *testing.T) {
	c := NewQueryCache(true)
	c.Put(unit("a", "b", 10))
	before := shardBytes(c)
	c.Put(unit("a", "b", 10)) // same size replacement
	if shardBytes(c) != before {
		t.Errorf("bytes drifted on replace: %d → %d", before, shardBytes(c))
	}
	c.Put(unit("a2", "b", 10))
	if shardBytes(c) <= before {
		t.Error("bytes did not grow with a new entry")
	}
}

func TestUnitApproxBytesGrowsWithGroups(t *testing.T) {
	small := unit("a", "b", 2).ApproxBytes()
	big := unit("a", "b", 200).ApproxBytes()
	if big <= small {
		t.Errorf("ApproxBytes: %d vs %d", small, big)
	}
}

// sk builds a pattern-cache key over one distinguishing component.
func sk(measure string) ScopeKey { return ScopeKey{Measure: measure} }

func TestPatternCache(t *testing.T) {
	c := NewPatternCache[int](true)
	if _, ok := c.Peek(sk("k")); ok {
		t.Fatal("empty hit")
	}
	c.Put(sk("k"), 42)
	v, ok := c.Peek(sk("k"))
	if !ok || v != 42 {
		t.Fatal("value lost")
	}
	if _, ok := c.Peek(sk("absent")); ok {
		t.Fatal("peek hit absent key")
	}
	if st := c.Stats(); st != (Stats{Entries: 1}) {
		t.Errorf("stats = %+v, want occupancy only", st)
	}
}

func TestDisabledPatternCache(t *testing.T) {
	c := NewPatternCache[string](false)
	c.Put(sk("k"), "v")
	if _, ok := c.Peek(sk("k")); ok {
		t.Fatal("disabled cache stored a value")
	}
}

func TestQueryCacheConcurrency(t *testing.T) {
	c := NewQueryCache(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("s%d", i%17)
				c.Put(unit(key, "b", 4))
				if _, ok := c.Peek(key, "b"); !ok {
					t.Errorf("unit %s lost right after its Put", key)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 17 {
		t.Errorf("entries = %d", st.Entries)
	}
}

func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	var f Flight[string, int]
	var computed atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, 8)
	leaders := make([]bool, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], leaders[0] = f.Do("k", func() int {
			close(started)
			<-release
			computed.Add(1)
			return 7
		})
	}()
	<-started
	var entered atomic.Int64
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Add(1)
			results[i], leaders[i] = f.Do("k", func() int {
				computed.Add(1)
				return 7
			})
		}(i)
	}
	// Park every follower inside Do before releasing the leader: on a
	// single-P scheduler the spawned goroutines may not run until this
	// goroutine blocks, and if the leader finished first the key would be
	// forgotten and every "follower" would lead its own flight.
	for entered.Load() < 7 {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computed.Load(); n != 1 {
		t.Errorf("fn executed %d times, want 1", n)
	}
	nLeaders := 0
	for i := range results {
		if results[i] != 7 {
			t.Errorf("result[%d] = %d", i, results[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Errorf("leaders = %d, want 1", nLeaders)
	}
}

func TestFlightForgetsCompletedKeys(t *testing.T) {
	var f Flight[string, int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, leader := f.Do("k", func() int { calls++; return calls })
		if !leader {
			t.Fatalf("call %d was not leader", i)
		}
		if v != i+1 {
			t.Fatalf("call %d returned %d", i, v)
		}
	}
}

func TestPatternCacheMaterialize(t *testing.T) {
	c := NewPatternCache[int](true)
	calls := 0
	compute := func() int { calls++; return 9 }
	if v := c.Materialize(sk("k"), compute); v != 9 {
		t.Fatalf("materialize = %d", v)
	}
	if v := c.Materialize(sk("k"), compute); v != 9 {
		t.Fatalf("second materialize = %d", v)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1 (memoized)", calls)
	}
	if st := c.Stats(); st != (Stats{Entries: 1}) {
		t.Errorf("materialize stats = %+v", st)
	}

	// Disabled cache computes every time and stores nothing.
	d := NewPatternCache[int](false)
	calls = 0
	d.Materialize(sk("k"), compute)
	d.Materialize(sk("k"), compute)
	if calls != 2 {
		t.Errorf("disabled materialize computed %d times, want 2", calls)
	}
}

func TestPatternCacheMaterializeConcurrent(t *testing.T) {
	c := NewPatternCache[int](true)
	var computed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%7)
				v := c.Materialize(sk(key), func() int {
					computed.Add(1)
					return i % 7
				})
				_ = v
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 7 {
		t.Errorf("entries = %d", st.Entries)
	}
	// Exactly once per key: a racer that missed before a leader's Put either
	// follows that leader's flight or, arriving after it, finds the value
	// when its own flight re-checks the cache.
	if computed.Load() != 7 {
		t.Errorf("computed = %d, want 7 (once per key)", computed.Load())
	}
}

func TestShardDistribution(t *testing.T) {
	// Keys spread across shards: with 500 distinct keys and 16 shards, every
	// shard should receive at least one key (collision into few shards would
	// recreate the global-lock hot path this cache is sharded to avoid).
	seen := make(map[uint64]bool)
	for i := 0; i < 500; i++ {
		k := UnitKey{Subspace: fmt.Sprintf("city=c%d", i), Breakdown: "month"}
		seen[k.hash()%shardCount] = true
	}
	if len(seen) != shardCount {
		t.Errorf("keys landed in %d/%d shards", len(seen), shardCount)
	}
}

// TestScopeKeyStringIsTheDataScopeKey pins the part-wise pattern-cache key
// to the external identity it stands for — including names that need
// escaping — and checks that ParseScopeKey inverts String, which the
// checkpoint restore path relies on.
func TestScopeKeyStringIsTheDataScopeKey(t *testing.T) {
	scopes := []model.DataScope{
		{Breakdown: "Month", Measure: model.Count("*")},
		{Subspace: model.NewSubspace(model.Filter{Dim: "City", Value: "LA"}), Breakdown: "Month", Measure: model.Sum("Sales")},
		{Subspace: model.NewSubspace(model.Filter{Dim: "A|B", Value: "x;y=z"}, model.Filter{Dim: "C", Value: `\{|}`}),
			Breakdown: `we|rd\`, Measure: model.Avg("a|b")},
	}
	for _, ds := range scopes {
		k := ScopeKey{Unit: UnitKey{Subspace: ds.Subspace.Key(), Breakdown: ds.Breakdown}, Measure: ds.Measure.Key()}
		if k.String() != ds.Key() {
			t.Errorf("ScopeKey.String() = %q, DataScope.Key() = %q", k.String(), ds.Key())
		}
		back, ok := ParseScopeKey(k.String())
		if !ok || back != k {
			t.Errorf("ParseScopeKey(%q) = %+v, %v; want %+v", k.String(), back, ok, k)
		}
	}
	for _, bad := range []string{"", "{*}", "{*}|Month", "{*}|Month|COUNT(*)|extra"} {
		if k, ok := ParseScopeKey(bad); ok {
			t.Errorf("ParseScopeKey(%q) accepted: %+v", bad, k)
		}
	}
}
