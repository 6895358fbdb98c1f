package miner

import (
	"encoding/json"
	"strings"
	"testing"

	"metainsight/internal/engine"
)

// TestStatsJSONKeepsReservedNames: a run's stats encoding carries the ten
// reserved wire names of retired counters, each always zero, so response
// bodies keep their bytes; and the encoding round-trips.
func TestStatsJSONKeepsReservedNames(t *testing.T) {
	for _, workers := range []int{1, 8} {
		res := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
			c.Budget = Budget{Cost: 400}
			c.Workers = workers
		})
		raw, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		for _, reserved := range []string{`"sstar_cut":0,`, `"prefetch_failures":0,`, `"failed_units":0,`, `"retries":0,`,
			`"breaker_trips":0,`, `"speculative_reissues":0,`, `"shard_retries":0,`, `"evictions":0,`,
			`"checkpoint_writes":0,`, `"resumed_units":0,`} {
			if !strings.Contains(string(raw), reserved) {
				t.Errorf("workers=%d: stats JSON lacks reserved %s: %s", workers, reserved, raw)
			}
		}
		var back Stats
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != res.Stats {
			t.Errorf("workers=%d: stats do not round-trip:\n wrote %+v\n read  %+v", workers, res.Stats, back)
		}
	}
}
