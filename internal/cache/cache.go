// Package cache implements the two caches of the MetaInsight mining
// procedure (Section 4.2): the query cache, whose unit is a 2-dimensional
// aggregation grid across all measures for one (subspace, breakdown) pair
// (Figure 5), and the pattern cache, which memoizes data-pattern evaluation
// results keyed by data scope (Section 4.2.3).
//
// Both caches are plain, unbounded memos of one mining run: nothing is
// evicted, a run starts with fresh ones, and they count nothing. The hit
// rates and sizes of the paper's Table 3 are the miner's canonical
// accounting (reported in the Stats shape below), not a property of the
// physical caches, whose traffic depends on worker scheduling. They are
// sharded by key hash so the paper's 8 worker threads do not serialize on a
// single lock on the hot path, and the package provides a generic
// single-flight group (Flight) used to coalesce concurrent misses on the same
// key into one computation.
package cache

import (
	"sync"

	"metainsight/internal/model"
)

// shardCount is the number of lock shards per cache. 16 comfortably exceeds
// the paper's 8 workers, keeping the expected number of workers contending
// on any one shard below one.
const shardCount = 16

// UnitKey identifies one query-cache unit.
type UnitKey struct {
	Subspace  string // canonical subspace key (model.Subspace.Key)
	Breakdown string // breakdown dimension name
}

// hash returns an FNV-1a hash of the key for shard selection.
func (k UnitKey) hash() uint64 {
	h := fnv1a(k.Subspace)
	h = (h ^ 0xff) * fnvPrime
	for i := 0; i < len(k.Breakdown); i++ {
		h = (h ^ uint64(k.Breakdown[i])) * fnvPrime
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(s string) uint64 { return fnvAdd(fnvOffset, s) }

// fnvAdd continues an FNV-1a hash h over the bytes of s.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// ScopeKey identifies one pattern-cache entry — a data scope — by its parts,
// so the miner's hot path keys evaluations without concatenating a string.
// String renders the external identity (trace labels, checkpoint snapshots),
// byte for byte model.DataScope.Key.
type ScopeKey struct {
	Unit    UnitKey
	Measure string // canonical measure key (model.Measure.Key)
}

// String returns the scope's canonical key, equal to model.DataScope.Key of
// the scope it identifies.
func (k ScopeKey) String() string {
	return k.Unit.Subspace + "|" + model.EscapeKey(k.Unit.Breakdown) + "|" + k.Measure
}

// ParseScopeKey inverts String: it splits a canonical data-scope key at its
// unescaped separators. The checkpoint restore path uses it to rebuild the
// simulated pattern cache from the string form a snapshot stores. ok is false
// when s does not have exactly three parts.
func ParseScopeKey(s string) (k ScopeKey, ok bool) {
	var parts [3]string
	n, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // the escaped byte is never a separator
		case '|':
			if n == 2 {
				return ScopeKey{}, false
			}
			parts[n] = s[start:i]
			n++
			start = i + 1
		}
	}
	if n != 2 {
		return ScopeKey{}, false
	}
	parts[2] = s[start:]
	return ScopeKey{
		Unit:    UnitKey{Subspace: parts[0], Breakdown: model.UnescapeKey(parts[1])},
		Measure: parts[2],
	}, true
}

// hash returns the FNV-1a hash of String() for shard selection, computed over
// the parts (an unescaped breakdown hashes as itself).
func (k ScopeKey) hash() uint64 {
	h := fnvAdd(fnvOffset, k.Unit.Subspace)
	h = fnvAdd(h, "|")
	h = fnvAdd(h, k.Unit.Breakdown)
	h = fnvAdd(h, "|")
	return fnvAdd(h, k.Measure)
}

// Unit is one query-cache entry: the aggregation of every measure column of
// the table, grouped by the breakdown dimension, under a fixed subspace
// filter — exactly the compound structure of the paper's Figure 5. It serves
// basic queries for any measure in M (measure extension comes for free),
// impact calculation (the impact measure is one of its columns), and the
// sibling units written by an augmented query serve subspace extension.
type Unit struct {
	Key UnitKey
	// GroupKeys are the breakdown values with at least one record, in
	// domain order.
	GroupKeys []string
	// Counts[i] is the number of records in group i (always > 0).
	Counts []float64
	// Sums, Mins and Maxs hold, per measure column name, the aggregate for
	// each group, aligned with GroupKeys. Together with Counts they answer
	// SUM, COUNT, AVG, MIN and MAX without re-scanning.
	Sums map[string][]float64
	Mins map[string][]float64
	Maxs map[string][]float64
}

// ApproxBytes estimates the in-memory footprint of the unit, used for the
// cache-size statistics of Table 3.
func (u *Unit) ApproxBytes() int64 {
	n := int64(len(u.GroupKeys))
	bytes := int64(64) // struct + maps overhead
	for _, k := range u.GroupKeys {
		bytes += int64(len(k)) + 16
	}
	cols := int64(len(u.Sums) + len(u.Mins) + len(u.Maxs) + 1)
	bytes += cols * n * 8
	return bytes
}

// Stats is the cache statistics shape of Table 3. The miner's canonical
// accounting fills every field; a physical cache reports only its occupancy
// (Entries, and per shard Bytes), having no counters.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int64
	Bytes   int64
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// qcShard is one lock shard of a QueryCache.
type qcShard struct {
	mu    sync.RWMutex
	units map[UnitKey]*Unit
}

// QueryCache stores query-cache units, sharded by key hash so concurrent
// workers do not serialize on one global lock. A disabled cache (see
// NewQueryCache) finds nothing and drops every Put, which is how the paper's
// "w/o Query Cache" ablation is run. QueryCache is safe for concurrent use.
type QueryCache struct {
	enabled bool
	shards  [shardCount]qcShard
}

// NewQueryCache creates a query cache. If enabled is false the cache is a
// no-op, for ablation experiments.
func NewQueryCache(enabled bool) *QueryCache {
	c := &QueryCache{enabled: enabled}
	for i := range c.shards {
		c.shards[i].units = make(map[UnitKey]*Unit)
	}
	return c
}

// Enabled reports whether the cache stores anything.
func (c *QueryCache) Enabled() bool { return c.enabled }

func (c *QueryCache) shard(k UnitKey) *qcShard {
	return &c.shards[k.hash()%shardCount]
}

// Peek looks up the unit for (subspace, breakdown).
func (c *QueryCache) Peek(subspace, breakdown string) (*Unit, bool) {
	if !c.enabled {
		return nil, false
	}
	k := UnitKey{Subspace: subspace, Breakdown: breakdown}
	s := c.shard(k)
	s.mu.RLock()
	u, ok := s.units[k]
	s.mu.RUnlock()
	return u, ok
}

// Put stores a unit, replacing any previous entry with the same key.
func (c *QueryCache) Put(u *Unit) {
	if !c.enabled {
		return
	}
	s := c.shard(u.Key)
	s.mu.Lock()
	s.units[u.Key] = u
	s.mu.Unlock()
}

// ShardStats returns per-shard entry counts and approximate byte sizes, in
// shard order; the observability layer publishes shard occupancy to make
// hash-skew across the lock shards visible.
func (c *QueryCache) ShardStats() []Stats {
	out := make([]Stats, shardCount)
	if !c.enabled {
		return out
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		var bytes int64
		for _, u := range s.units {
			bytes += u.ApproxBytes()
		}
		out[i] = Stats{Entries: int64(len(s.units)), Bytes: bytes}
		s.mu.RUnlock()
	}
	return out
}

// Stats reports the cache's occupancy: Entries only.
func (c *QueryCache) Stats() Stats {
	var entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		entries += int64(len(s.units))
		s.mu.RUnlock()
	}
	return Stats{Entries: entries}
}

// pcShard is one lock shard of a PatternCache.
type pcShard[V any] struct {
	mu      sync.RWMutex
	entries map[ScopeKey]V
}

// PatternCache memoizes values of type V keyed by data scope (MetaInsight
// memoizes pattern evaluations), sharded by key hash. A disabled cache
// stores nothing, matching the "w/o Pattern Cache" ablation. PatternCache is
// safe for concurrent use.
type PatternCache[V any] struct {
	enabled bool
	shards  [shardCount]pcShard[V]
	flight  Flight[ScopeKey, V]
}

// NewPatternCache creates a pattern cache; disabled caches are no-ops.
func NewPatternCache[V any](enabled bool) *PatternCache[V] {
	c := &PatternCache[V]{enabled: enabled}
	for i := range c.shards {
		c.shards[i].entries = make(map[ScopeKey]V)
	}
	return c
}

// Enabled reports whether the cache stores anything.
func (c *PatternCache[V]) Enabled() bool { return c.enabled }

// FlightStats reports the callers that waited on another caller's
// evaluation of the same scope.
func (c *PatternCache[V]) FlightStats() FlightStats { return c.flight.Stats() }

func (c *PatternCache[V]) shard(key ScopeKey) *pcShard[V] {
	return &c.shards[key.hash()%shardCount]
}

func (c *PatternCache[V]) lookup(key ScopeKey) (V, bool) {
	s := c.shard(key)
	s.mu.RLock()
	v, ok := s.entries[key]
	s.mu.RUnlock()
	return v, ok
}

// Peek looks up key.
func (c *PatternCache[V]) Peek(key ScopeKey) (V, bool) {
	var zero V
	if !c.enabled {
		return zero, false
	}
	return c.lookup(key)
}

// Put stores key → v, replacing any previous entry.
func (c *PatternCache[V]) Put(key ScopeKey, v V) {
	if !c.enabled {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	s.entries[key] = v
	s.mu.Unlock()
}

// Materialize returns the memoized value for key, computing and storing it
// on a miss: compute runs at most once per key. Concurrent misses on the same
// key single-flight into one compute call, and the flight re-checks the cache
// first, so a caller that missed just before an earlier leader's Put finds
// the value instead of computing it again. On a disabled cache every call
// computes.
func (c *PatternCache[V]) Materialize(key ScopeKey, compute func() V) V {
	if !c.enabled {
		return compute()
	}
	if v, ok := c.lookup(key); ok {
		return v
	}
	v, _ := c.flight.Do(key, func() V {
		if v, ok := c.lookup(key); ok {
			return v // raced with another leader's Put
		}
		v := compute()
		c.Put(key, v)
		return v
	})
	return v
}

// ShardStats returns per-shard entry counts, in shard order; see
// QueryCache.ShardStats.
func (c *PatternCache[V]) ShardStats() []Stats {
	out := make([]Stats, shardCount)
	if !c.enabled {
		return out
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		out[i] = Stats{Entries: int64(len(s.entries))}
		s.mu.RUnlock()
	}
	return out
}

// Stats reports the cache's occupancy: Entries only (Table 3 sizes the
// pattern cache by entry count).
func (c *PatternCache[V]) Stats() Stats {
	var entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		entries += int64(len(s.entries))
		s.mu.RUnlock()
	}
	return Stats{Entries: entries}
}
