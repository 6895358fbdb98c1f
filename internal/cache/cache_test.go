package cache

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metainsight/internal/model"
)

func unit(groups int) *Unit {
	u := &Unit{Cols: NewColumns([]string{"V"}, []bool{true})}
	for i := 0; i < groups; i++ {
		u.Codes = append(u.Codes, uint32(i))
	}
	u.Data = make([]float64, groups*u.Cols.Width())
	for i := range u.Counts() {
		u.Counts()[i] = 1
	}
	return u
}

// domain is a breakdown dictionary of n values g0, g1, ….
func domain(n int) []string {
	d := make([]string, n)
	for i := range d {
		d[i] = fmt.Sprintf("g%d", i)
	}
	return d
}

// The slot functions lay ids out as the engine does, over a table of
// breakdowns dimensions: units by handle ordinal × breakdown index, scopes in
// one table per measure ordinal; intSlot keys a memo by its integer.
const breakdowns = 4

func unitSlot(id UnitID) (int, uint64)   { return 0, id.Index(breakdowns) }
func scopeSlot(id ScopeID) (int, uint64) { return int(id.Measure()), id.Unit().Index(breakdowns) }
func intSlot(k int) (int, uint64)        { return 0, uint64(k) }

// sk builds a pattern-cache key over one distinguishing component.
func sk(measure uint32) ScopeID { return MakeUnitID(0, 0).Scope(measure) }

// TestQueryCachePutGet: a kept unit is found under its own key and no other;
// a second Put of the key keeps the first unit, and Do serves it without
// computing; and the cache reports its occupancy — never a hit/miss count,
// which is the miner's canonical accounting and not the cache's.
func TestQueryCachePutGet(t *testing.T) {
	c := NewMemo[UnitID, *Unit](unitSlot)
	k := MakeUnitID(0, 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	first := unit(12)
	c.Put(k, first)
	c.Put(k, unit(12))
	if u, ok := c.Get(k); !ok || u != first {
		t.Fatalf("Get = %p, %v; want the first unit put %p", u, ok, first)
	}
	if _, ok := c.Get(MakeUnitID(0, 2)); ok {
		t.Fatal("wrong breakdown hit")
	}
	if u := c.Do(k, func() *Unit { t.Fatal("Do recomputed a kept unit"); return nil }); u != first {
		t.Fatalf("Do = %p; want the kept unit", u)
	}
	if st := c.Stats(); st != (Stats{Entries: 1}) {
		t.Errorf("stats = %+v, want occupancy only", st)
	}
}

// TestPatternCache: a stored value is found, a later Put of its key keeps
// it, and an absent key is not.
func TestPatternCache(t *testing.T) {
	c := NewMemo[ScopeID, int](scopeSlot)
	if _, ok := c.Get(sk(1)); ok {
		t.Fatal("empty hit")
	}
	c.Put(sk(1), 42)
	c.Put(sk(1), 43)
	if v, ok := c.Get(sk(1)); !ok || v != 42 {
		t.Fatalf("Get = %d, %v; want the first value put", v, ok)
	}
	if _, ok := c.Get(sk(2)); ok {
		t.Fatal("hit on an absent key")
	}
	if st := c.Stats(); st != (Stats{Entries: 1}) {
		t.Errorf("stats = %+v, want occupancy only", st)
	}
}

// TestPatternCacheMaterialize: Do computes a missing value once and keeps
// it.
func TestPatternCacheMaterialize(t *testing.T) {
	c := NewMemo[ScopeID, int](scopeSlot)
	calls := 0
	compute := func() int { calls++; return 9 }
	for i := 0; i < 2; i++ {
		if v := c.Do(sk(1), compute); v != 9 {
			t.Fatalf("Do = %d", v)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1 (memoized)", calls)
	}
	if st := c.Stats(); st != (Stats{Entries: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

// waitParked blocks until n goroutines are parked waiting inside a Memo's
// Do. On a single-P scheduler a spawned goroutine may not run until the
// spawner blocks, so a test that needs followers must see them parked
// before it lets the computation finish.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "WaitGroup).Wait") && strings.Contains(g, "cache.(*Memo[") {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers parked", got, n)
		}
		runtime.Gosched()
	}
}

// key is the one key the coalescing tests race on.
const key = 1

// race runs Do(key, fn) from one leader and n followers, parks the followers
// on the leader's computation, then releases it. Each caller's outcome, or
// the value it panicked with, is returned in call order (leader first).
func race[V any](t *testing.T, m *Memo[int, V], n int, fn func() V) (vals []V, panics []any) {
	t.Helper()
	vals, panics = make([]V, n+1), make([]any, n+1)
	release, started := make(chan struct{}), make(chan struct{})
	call := func(i int, fn func() V) {
		defer func() { panics[i] = recover() }()
		vals[i] = m.Do(key, fn)
	}
	var wg sync.WaitGroup
	wg.Add(n + 1)
	go func() {
		defer wg.Done()
		call(0, func() V { close(started); <-release; return fn() })
	}()
	<-started
	for i := 1; i <= n; i++ {
		go func() {
			defer wg.Done()
			call(i, func() V { t.Error("a follower computed"); return fn() })
		}()
	}
	waitParked(t, n)
	close(release)
	wg.Wait()
	return vals, panics
}

// TestFlightCoalescesConcurrentCalls: concurrent callers of one key share
// one computation, whose value is kept, and each waiting caller counts as a
// follower.
func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	m := NewMemo[int, int](intSlot)
	var computed atomic.Int64
	vals, panics := race(t, m, 7, func() int { computed.Add(1); return 7 })
	if n := computed.Load(); n != 1 {
		t.Errorf("fn executed %d times, want 1", n)
	}
	for i := range vals {
		if vals[i] != 7 || panics[i] != nil {
			t.Errorf("caller %d got %d, %v", i, vals[i], panics[i])
		}
	}
	if st := m.FlightStats(); st.Followers != 7 || st.Wait <= 0 {
		t.Errorf("flight stats %+v, want 7 followers that waited", st)
	}
	if v, ok := m.Get(key); !ok || v != 7 {
		t.Errorf("Get = %d, %v; want the kept 7", v, ok)
	}
}

// TestMemoPanicsReachEveryWaiter: a panicking computation re-panics in its
// caller and in every parked waiter with the same value — a waiter must not
// deadlock, and the miner's per-unit recover relies on every worker seeing
// the same deterministic panic — and the key is forgotten.
func TestMemoPanicsReachEveryWaiter(t *testing.T) {
	m := NewMemo[int, int](intSlot)
	_, panics := race(t, m, 3, func() int { panic("evaluator exploded") })
	for i, p := range panics {
		if p != "evaluator exploded" {
			t.Errorf("caller %d: recovered %v, want the computation's panic", i, p)
		}
	}
	if _, ok := m.Get(key); ok {
		t.Fatal("a panicked computation left a value")
	}
	if v := m.Do(key, func() int { return 6 }); v != 6 {
		t.Fatalf("Do after a panic = %d; want a fresh 6", v)
	}
	if v, ok := m.Get(key); !ok || v != 6 {
		t.Errorf("Get = %d, %v; want the kept 6", v, ok)
	}
}

// TestMemoFlightOutranksPut: while a key is being computed, Get finds
// nothing and a Put of the key is dropped; the computed value is kept.
func TestMemoFlightOutranksPut(t *testing.T) {
	m := NewMemo[int, int](intSlot)
	v := m.Do(key, func() int {
		if _, ok := m.Get(key); ok {
			t.Error("Get returned a value still being computed")
		}
		m.Put(key, 1)
		return 2
	})
	if v != 2 {
		t.Fatalf("Do = %d", v)
	}
	if got, ok := m.Get(key); !ok || got != 2 {
		t.Errorf("Get = %d, %v; want the computed 2", got, ok)
	}
}

func TestQueryCacheConcurrency(t *testing.T) {
	c := NewMemo[UnitID, *Unit](unitSlot)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := MakeUnitID(uint32(i%17), 1)
				c.Put(k, unit(4))
				if _, ok := c.Get(k); !ok {
					t.Errorf("unit %v lost right after its Put", k)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 17 {
		t.Errorf("entries = %d", st.Entries)
	}
}

// TestPatternCacheMaterializeConcurrent: racing Do calls compute exactly
// once per key — a racer either follows the computation in flight or, coming
// after it, finds the kept value.
func TestPatternCacheMaterializeConcurrent(t *testing.T) {
	c := NewMemo[ScopeID, int](scopeSlot)
	var computed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				want := i % 7
				v := c.Do(sk(uint32(want)), func() int { computed.Add(1); return want })
				if v != want {
					t.Errorf("Do = %d, want %d", v, want)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 7 {
		t.Errorf("entries = %d", st.Entries)
	}
	if n := computed.Load(); n != 7 {
		t.Errorf("computed = %d, want 7 (once per key)", n)
	}
}

// TestMemoGrowsUnderConcurrentDo: goroutines that Do keys whose slots lie
// in several chunks and several tables at once, each walking them in its own
// order, make every chunk and table while others read and grow the
// directories: each key computes exactly once, and a later Get returns the
// value its Do computed.
func TestMemoGrowsUnderConcurrentDo(t *testing.T) {
	const handles, measures, workers = 6 * chunkLen / breakdowns, 3, 8
	m := NewMemo[ScopeID, int](scopeSlot)
	var computed [measures][handles * breakdowns]atomic.Int64
	value := func(id ScopeID) int { return int(id.Measure())<<20 | int(id.Unit().Index(breakdowns)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w starts w eighths of the way in and strides through
			// every slot, so the workers make different chunks of different
			// tables at the same time.
			n := measures * handles * breakdowns
			for j := 0; j < n; j++ {
				at := (j*7 + w*n/workers) % n
				meas, idx := at%measures, at/measures
				id := MakeUnitID(uint32(idx/breakdowns), idx%breakdowns).Scope(uint32(meas))
				v := m.Do(id, func() int { computed[meas][idx].Add(1); return value(id) })
				if v != value(id) {
					t.Errorf("Do(%x) = %d, want %d", id, v, value(id))
				}
			}
		}()
	}
	wg.Wait()
	for meas := range computed {
		for idx := range computed[meas] {
			id := MakeUnitID(uint32(idx/breakdowns), idx%breakdowns).Scope(uint32(meas))
			if n := computed[meas][idx].Load(); n != 1 {
				t.Errorf("key %x computed %d times, want 1", id, n)
			}
			if v, ok := m.Get(id); !ok || v != value(id) {
				t.Errorf("Get(%x) = %d, %v; want %d", id, v, ok, value(id))
			}
		}
	}
	if got, want := m.Stats().Entries, int64(measures*handles*breakdowns); got != want {
		t.Errorf("entries = %d, want %d", got, want)
	}
	if got, want := m.Slots(), int64(measures*handles*breakdowns); got != want {
		t.Errorf("slots = %d, want %d: one chunk per %d indices of each table", got, want, chunkLen)
	}
}

// TestMemoHitAllocatesNothing: a hit, through Get or through Do with a
// capturing closure, allocates nothing — the closure must not escape.
func TestMemoHitAllocatesNothing(t *testing.T) {
	p := NewMemo[ScopeID, int](scopeSlot)
	k := MakeUnitID(3, 2).Scope(1)
	p.Put(k, 3)
	x := 4
	allocs := testing.AllocsPerRun(100, func() {
		v := p.Do(k, func() int { return x })
		w, _ := p.Get(k)
		x += v + w
	})
	if allocs != 0 {
		t.Errorf("a hit allocates %.1f times, want 0", allocs)
	}
}

// TestMemoWaitOutlastsAComputation: Wait reports a missing key as missing
// without computing it, returns a kept value, and waits out a computation
// in flight, which Get does not.
func TestMemoWaitOutlastsAComputation(t *testing.T) {
	m := NewMemo[int, int](intSlot)
	if _, ok := m.Wait(1); ok {
		t.Fatal("Wait found a key nobody computed")
	}
	m.Put(2, 20)
	if v, ok := m.Wait(2); !ok || v != 20 {
		t.Fatalf("Wait on a kept value: %d, %v", v, ok)
	}
	started, release := make(chan struct{}), make(chan struct{})
	go m.Do(3, func() int { close(started); <-release; return 30 })
	<-started
	if _, ok := m.Get(3); ok {
		t.Fatal("Get returned a value still being computed")
	}
	go close(release)
	if v, ok := m.Wait(3); !ok || v != 30 {
		t.Fatalf("Wait on a computation in flight: %d, %v", v, ok)
	}
}

func TestUnitApproxBytesGrowsWithGroups(t *testing.T) {
	small := unit(2).ApproxBytes(domain(2))
	big := unit(200).ApproxBytes(domain(200))
	if big <= small {
		t.Errorf("ApproxBytes: %d vs %d", small, big)
	}
}

// TestUnitColumnsRenderByName checks the flat layout against the named
// form: counts first, then every column's sums, then min and max of the
// columns that keep them, each aligned with the group codes; and
// ApproxBytes is what the named form's keys and columns take.
func TestUnitColumnsRenderByName(t *testing.T) {
	cols := NewColumns([]string{"A", "B", "C"}, []bool{false, true, false})
	u := Unit{Codes: []uint32{1, 3}, Cols: cols,
		Data: []float64{2, 5, 10, 11, 20, 21, 30, 31, -1, -2, 9, 8}}
	if cols.Width() != 6 {
		t.Fatalf("width %d, want 6", cols.Width())
	}
	nu := u.Named([]string{"w", "x", "y", "zz"})
	want := &NamedUnit{
		GroupKeys: []string{"x", "zz"},
		Counts:    []float64{2, 5},
		Sums:      map[string][]float64{"A": {10, 11}, "B": {20, 21}, "C": {30, 31}},
		Mins:      map[string][]float64{"B": {-1, -2}},
		Maxs:      map[string][]float64{"B": {9, 8}},
	}
	if fmt.Sprint(nu) != fmt.Sprint(want) {
		t.Errorf("named unit\n got %v\nwant %v", nu, want)
	}
	if _, ok := u.Mins("A"); ok {
		t.Error("column A keeps no minima, but Mins found some")
	}
	if _, ok := u.Sums("D"); ok {
		t.Error("Sums found an unknown column")
	}
	// 64 for the header, 16 plus the length per key, 8 per cell.
	if got, want := u.ApproxBytes([]string{"w", "x", "y", "zz"}), int64(64+17+18+12*8); got != want {
		t.Errorf("ApproxBytes %d, want %d", got, want)
	}
}

// TestScopeKeyStringIsTheDataScopeKey pins the part-wise pattern-cache key
// to the external identity it stands for — including names that need
// escaping.
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
	}
}

// TestIDsPackTheirParts: a unit id keeps its handle ordinal and breakdown
// index at their extremes, and a scope id keeps its unit and measure ordinal,
// so distinct parts never share an id.
func TestIDsPackTheirParts(t *testing.T) {
	seen := make(map[ScopeID]bool)
	for _, handle := range []uint32{0, 1, 1 << 20, math.MaxUint32} {
		for _, bdim := range []int{0, 1, MaxBreakdowns - 1} {
			u := MakeUnitID(handle, bdim)
			if u.Handle() != handle || u.Breakdown() != bdim {
				t.Errorf("MakeUnitID(%d, %d) unpacks to (%d, %d)", handle, bdim, u.Handle(), u.Breakdown())
			}
			for _, m := range []uint32{0, 1, MaxMeasures - 1} {
				s := u.Scope(m)
				if s.Unit() != u || s.Measure() != m {
					t.Errorf("(%x).Scope(%d) unpacks to (%x, %d)", u, m, s.Unit(), s.Measure())
				}
				if seen[s] {
					t.Errorf("scope id %x taken twice", s)
				}
				seen[s] = true
			}
		}
	}
}
