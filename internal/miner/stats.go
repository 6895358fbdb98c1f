package miner

import (
	"encoding/json"
	"fmt"
	"strings"

	"metainsight/internal/cache"
)

// String renders the run counters as a one-line human-readable summary, the
// end-of-run line the CLI and service callers print.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "units[expand=%d pattern=%d mi=%d emitted=%d]",
		s.ExpandUnits, s.DataPatternUnits, s.MetaInsightUnits, s.EmittedMIUnits)
	fmt.Fprintf(&b, " patterns=%d pruned[p1=%d p2=%d]", s.PatternsFound, s.Pruned1, s.Pruned2)
	if s.BoundSkips > 0 || s.BoundScanSkips > 0 {
		fmt.Fprintf(&b, " bound-cut[emit=%d scan=%d]", s.BoundSkips, s.BoundScanSkips)
	}
	fmt.Fprintf(&b, " queries[exec=%d aug=%d served=%d]",
		s.ExecutedQueries, s.AugmentedQueries, s.CacheServed)
	fmt.Fprintf(&b, " cost=%.1f qcache=%.1f%% pcache=%.1f%%",
		s.CostUsed, 100*s.QueryCacheStats.HitRate(), 100*s.PatternCacheStats.HitRate())
	if s.PanickedUnits > 0 {
		fmt.Fprintf(&b, " panicked=%d", s.PanickedUnits)
	}
	if s.ShortSeriesSkips > 0 || s.ExtractErrors > 0 {
		fmt.Fprintf(&b, " skips[short-series=%d extract-errors=%d]",
			s.ShortSeriesSkips, s.ExtractErrors)
	}
	if s.Cancelled {
		b.WriteString(" cancelled")
	}
	return b.String()
}

// cacheStatsJSON fixes the wire names of cache.Stats.
type cacheStatsJSON struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Entries int64   `json:"entries"`
	Bytes   int64   `json:"bytes"`
	HitRate float64 `json:"hit_rate"`
}

func toCacheStatsJSON(s cache.Stats) cacheStatsJSON {
	return cacheStatsJSON{
		Hits:    s.Hits,
		Misses:  s.Misses,
		Entries: s.Entries,
		Bytes:   s.Bytes,
		HitRate: s.HitRate(),
	}
}

// statsJSON fixes the stable wire names of Stats. Fields marshal in
// declaration order, so the encoding is byte-stable for equal values. The
// nine fields with no Stats counterpart, and Evictions, are reserved, always
// zero: counters of the retired sharded execution mode, fault simulation,
// scan failure model, checkpoint/resume, S*-bounded early termination and
// byte-bounded caches, kept so response bodies stay byte-identical across
// their removal.
type statsJSON struct {
	ExpandUnits      int64          `json:"expand_units"`
	DataPatternUnits int64          `json:"data_pattern_units"`
	MetaInsightUnits int64          `json:"metainsight_units"`
	EmittedMIUnits   int64          `json:"emitted_metainsight_units"`
	PatternsFound    int64          `json:"patterns_found"`
	Pruned1          int64          `json:"pruned_1"`
	Pruned2          int64          `json:"pruned_2"`
	TopKCuts         int64          `json:"sstar_cut"`
	BoundSkips       int64          `json:"bound_skips"`
	BoundScanSkips   int64          `json:"bound_scan_skips"`
	PrefetchFailures int64          `json:"prefetch_failures"`
	FailedUnits      int64          `json:"failed_units"`
	Retries          int64          `json:"retries"`
	BreakerTrips     int64          `json:"breaker_trips"`
	SpecReissues     int64          `json:"speculative_reissues"`
	ShardRetries     int64          `json:"shard_retries"`
	PanickedUnits    int64          `json:"panicked_units"`
	Evictions        int64          `json:"evictions"`
	CheckpointWrites int64          `json:"checkpoint_writes"`
	ResumedUnits     int64          `json:"resumed_units"`
	ShortSeriesSkips int64          `json:"short_series_skips"`
	ExtractErrors    int64          `json:"extract_errors"`
	ExecutedQueries  int64          `json:"executed_queries"`
	AugmentedQueries int64          `json:"augmented_queries"`
	CacheServed      int64          `json:"cache_served"`
	CostUsed         float64        `json:"cost_used"`
	Cancelled        bool           `json:"cancelled"`
	QueryCache       cacheStatsJSON `json:"query_cache"`
	PatternCache     cacheStatsJSON `json:"pattern_cache"`
}

// MarshalJSON serializes the stats under stable snake_case field names, so
// CLI and service callers can consume runs without reformatting the struct
// by hand.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		ExpandUnits:      s.ExpandUnits,
		DataPatternUnits: s.DataPatternUnits,
		MetaInsightUnits: s.MetaInsightUnits,
		EmittedMIUnits:   s.EmittedMIUnits,
		PatternsFound:    s.PatternsFound,
		Pruned1:          s.Pruned1,
		Pruned2:          s.Pruned2,
		BoundSkips:       s.BoundSkips,
		BoundScanSkips:   s.BoundScanSkips,
		PanickedUnits:    s.PanickedUnits,
		ShortSeriesSkips: s.ShortSeriesSkips,
		ExtractErrors:    s.ExtractErrors,
		ExecutedQueries:  s.ExecutedQueries,
		AugmentedQueries: s.AugmentedQueries,
		CacheServed:      s.CacheServed,
		CostUsed:         s.CostUsed,
		Cancelled:        s.Cancelled,
		QueryCache:       toCacheStatsJSON(s.QueryCacheStats),
		PatternCache:     toCacheStatsJSON(s.PatternCacheStats),
	})
}

// UnmarshalJSON parses the stable wire format back into Stats.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var j statsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Stats{
		ExpandUnits:      j.ExpandUnits,
		DataPatternUnits: j.DataPatternUnits,
		MetaInsightUnits: j.MetaInsightUnits,
		EmittedMIUnits:   j.EmittedMIUnits,
		PatternsFound:    j.PatternsFound,
		Pruned1:          j.Pruned1,
		Pruned2:          j.Pruned2,
		BoundSkips:       j.BoundSkips,
		BoundScanSkips:   j.BoundScanSkips,
		PanickedUnits:    j.PanickedUnits,
		ShortSeriesSkips: j.ShortSeriesSkips,
		ExtractErrors:    j.ExtractErrors,
		ExecutedQueries:  j.ExecutedQueries,
		AugmentedQueries: j.AugmentedQueries,
		CacheServed:      j.CacheServed,
		CostUsed:         j.CostUsed,
		Cancelled:        j.Cancelled,
		QueryCacheStats: cache.Stats{
			Hits: j.QueryCache.Hits, Misses: j.QueryCache.Misses,
			Entries: j.QueryCache.Entries, Bytes: j.QueryCache.Bytes,
		},
		PatternCacheStats: cache.Stats{
			Hits: j.PatternCache.Hits, Misses: j.PatternCache.Misses,
			Entries: j.PatternCache.Entries, Bytes: j.PatternCache.Bytes,
		},
	}
	return nil
}
