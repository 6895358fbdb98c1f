package shard

// The sharded differential suite: units (and augmented unit sets) must be
// byte-identical across shards ∈ {1,2,4,8} × scan parallelism ∈ {1,4} ×
// plan mode, on fractional data — the tentpole bit-identity claim — and
// match the unsharded substrate exactly on integer-valued data. Fault
// schedules, straggler speculation and the deterministic winner pick are
// covered by fate-level tests that assert purity (physical path and replay
// agree) and determinism.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/faults"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fracTable builds a deterministic fractional-valued table: the hard case
// for merge-order bugs, since float sums expose any change of addition tree.
func fracTable(seed int64, rows int) *dataset.Table {
	r := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("shardfrac", []model.Field{
		{Name: "G", Kind: model.KindCategorical},
		{Name: "H", Kind: model.KindCategorical},
		{Name: "P", Kind: model.KindTemporal},
		{Name: "V", Kind: model.KindMeasure},
		{Name: "W", Kind: model.KindMeasure},
	})
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun"}
	for i := 0; i < rows; i++ {
		b.AddRow([]string{
			fmt.Sprintf("g%d", r.Intn(9)),
			fmt.Sprintf("h%d", r.Intn(6)),
			months[r.Intn(len(months))],
		}, []float64{r.NormFloat64() * 1e3, r.Float64()})
	}
	return b.Build()
}

// intTable builds an integer-valued table, where sums are exact under any
// association and sharded results must equal the unsharded substrate's.
func intTable(seed int64, rows int) *dataset.Table {
	r := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("shardint", []model.Field{
		{Name: "G", Kind: model.KindCategorical},
		{Name: "H", Kind: model.KindCategorical},
		{Name: "V", Kind: model.KindMeasure},
	})
	for i := 0; i < rows; i++ {
		b.AddRow([]string{
			fmt.Sprintf("g%d", r.Intn(8)),
			fmt.Sprintf("h%d", r.Intn(5)),
		}, []float64{float64(r.Intn(2000) - 1000)})
	}
	return b.Build()
}

func newSub(t *testing.T, tab *dataset.Table, shards, par int, mode engine.PlanMode) *Substrate {
	t.Helper()
	s, err := New(tab, Config{Shards: shards, Block: 64, ScanParallelism: par, PlanMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPartition(t *testing.T) {
	for _, tc := range []struct {
		rows, shards, block int
		want                []Range
	}{
		{1000, 4, 100, []Range{{0, 300}, {300, 600}, {600, 800}, {800, 1000}}},
		{1000, 1, 100, []Range{{0, 1000}}},
		{150, 4, 100, []Range{{0, 100}, {100, 150}}}, // clamped to 2 blocks
		{0, 4, 100, []Range{{0, 0}}},
		{50, 3, 100, []Range{{0, 50}}},
	} {
		got := Partition(tc.rows, tc.shards, tc.block)
		if jsonOf(t, got) != jsonOf(t, tc.want) {
			t.Errorf("Partition(%d,%d,%d) = %v, want %v", tc.rows, tc.shards, tc.block, got, tc.want)
		}
	}
	// Ranges must tile [0, rows) contiguously and align to blocks.
	rs := Partition(9973, 8, 64)
	at := 0
	for i, r := range rs {
		if r.Lo != at || (i < len(rs)-1 && r.Hi%64 != 0) {
			t.Fatalf("range %d = %v does not tile/align (at=%d)", i, r, at)
		}
		at = r.Hi
	}
	if at != 9973 {
		t.Fatalf("ranges end at %d, want 9973", at)
	}
}

// TestShardDifferentialUnit is the tentpole grid: fractional units are
// byte-identical across shards × scan-parallelism × plan-mode.
func TestShardDifferentialUnit(t *testing.T) {
	tab := fracTable(21, 3000)
	r := rand.New(rand.NewSource(4))
	dims := tab.DimensionNames()
	type scope struct {
		sub model.Subspace
		bd  string
	}
	var scopes []scope
	for len(scopes) < 12 {
		sub := model.EmptySubspace
		for d := 0; d < r.Intn(3); d++ {
			dim := tab.Dimension(dims[r.Intn(len(dims))])
			if !sub.Has(dim.Name) {
				sub = sub.With(dim.Name, dim.Domain()[r.Intn(dim.Cardinality())])
			}
		}
		bd := dims[r.Intn(len(dims))]
		if sub.Has(bd) {
			continue
		}
		scopes = append(scopes, scope{sub, bd})
	}
	for _, sc := range scopes {
		var want string
		for _, mode := range []engine.PlanMode{engine.PlanAuto, engine.PlanBitmap, engine.PlanResidual, engine.PlanZone} {
			if len(sc.sub) == 0 && mode != engine.PlanAuto {
				continue
			}
			// Metered rows depend on the plan strategy (modes are distinct
			// deterministic universes) but must be shard-invariant within one.
			wantRows := -1
			for _, shards := range []int{1, 2, 4, 8} {
				for _, par := range []int{1, 4} {
					s := newSub(t, tab, shards, par, mode)
					u, rows, err := s.ScanUnit(sc.sub, sc.bd)
					if err != nil {
						t.Fatal(err)
					}
					got := jsonOf(t, u)
					if wantRows < 0 {
						wantRows = rows
					}
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("scope %s by %s: shards=%d par=%d mode=%v produced different bits",
							sc.sub.Key(), sc.bd, shards, par, mode)
					}
					if rows != wantRows {
						t.Fatalf("scope %s: metered rows %d at shards=%d, want %d (must be shard-invariant)",
							sc.sub.Key(), rows, shards, wantRows)
					}
					if pr := s.PlannedRows(sc.sub); pr != rows {
						t.Fatalf("scope %s: PlannedRows=%d but scan metered %d", sc.sub.Key(), pr, rows)
					}
				}
			}
		}
	}
}

// TestShardDifferentialAugmented: same grid over the augmented path.
func TestShardDifferentialAugmented(t *testing.T) {
	tab := fracTable(22, 2500)
	for _, base := range []model.Subspace{
		model.EmptySubspace,
		model.NewSubspace(model.Filter{Dim: "H", Value: "h2"}),
	} {
		var want string
		for _, mode := range []engine.PlanMode{engine.PlanAuto, engine.PlanResidual, engine.PlanZone} {
			if len(base) == 0 && mode != engine.PlanAuto {
				continue
			}
			for _, shards := range []int{1, 2, 4, 8} {
				for _, par := range []int{1, 4} {
					s := newSub(t, tab, shards, par, mode)
					units, _, err := s.ScanAugmented(base, "G", "P")
					if err != nil {
						t.Fatal(err)
					}
					keys := make([]string, 0, len(units))
					for k := range units {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					got := ""
					for _, k := range keys {
						got += k + "=" + jsonOf(t, units[k]) + ";"
					}
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("base %s: shards=%d par=%d mode=%v augmented bits differ", base.Key(), shards, par, mode)
					}
				}
			}
		}
	}
}

// TestShardMatchesUnshardedInteger: with exact (integer) sums, the sharded
// substrate must agree with the plain columnar substrate byte for byte.
func TestShardMatchesUnshardedInteger(t *testing.T) {
	tab := intTable(23, 2000)
	plain := engine.NewColumnarSubstrate(tab, engine.WithMorselSize(64))
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		sub := model.EmptySubspace
		if trial%2 == 1 {
			sub = sub.With("H", fmt.Sprintf("h%d", r.Intn(5)))
		}
		wantU, wantRows, err := plain.ScanUnit(sub, "G")
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 8} {
			s := newSub(t, tab, shards, 2, engine.PlanAuto)
			u, rows, err := s.ScanUnit(sub, "G")
			if err != nil {
				t.Fatal(err)
			}
			if jsonOf(t, u) != jsonOf(t, wantU) || rows != wantRows {
				t.Fatalf("trial %d shards=%d: sharded integer scan differs from unsharded", trial, shards)
			}
		}
	}
}

// TestShardFatePurity: fates, ResolveShards and CompletionCost are pure
// functions of the fingerprint — same inputs, same outputs, including across
// substrate instances with the same config — and scan results are unaffected
// by fault schedules when every shard eventually succeeds.
func TestShardFatePurity(t *testing.T) {
	tab := fracTable(24, 1500)
	cfg := Config{Shards: 4, Block: 64, Faults: FaultPlan{
		Policy:         faults.Policy{Seed: 11, TransientRate: 0.3, LatencyRate: 0.5, LatencyUnits: 4},
		SlowShards:     []int{2},
		SlowFactor:     25,
		SpeculateAfter: 20,
	}}
	a, err := New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New(tab, Config{Shards: 4, Block: 64})
	if err != nil {
		t.Fatal(err)
	}
	sub := model.NewSubspace(model.Filter{Dim: "H", Value: "h1"})
	for trial := 0; trial < 50; trial++ {
		fp := engine.UnitFingerprint(fmt.Sprintf("t%d", trial), "G")
		ra, rb := a.ResolveShards(fp), b.ResolveShards(fp)
		if ra != rb {
			t.Fatalf("fp %s: ResolveShards not pure: %+v vs %+v", fp, ra, rb)
		}
		if a.CompletionCost(fp) != b.CompletionCost(fp) {
			t.Fatalf("fp %s: CompletionCost not pure", fp)
		}
	}
	ua, _, errA := a.ScanUnit(sub, "G")
	uc, _, errC := clean.ScanUnit(sub, "G")
	if errA != nil || errC != nil {
		t.Fatalf("scan errors: %v / %v", errA, errC)
	}
	if jsonOf(t, ua) != jsonOf(t, uc) {
		t.Fatal("fault schedule changed scan result bits (must only affect costs/counters)")
	}
}

// TestShardSpeculationModel pins the speculative re-issue semantics: a
// straggler shard's completion cost is capped near the speculate threshold
// when the healthy-replica copy answers promptly, reissues are counted, and
// permanent double failures surface as deterministic scan errors.
func TestShardSpeculationModel(t *testing.T) {
	tab := fracTable(25, 1500)
	mk := func(spec float64) *Substrate {
		s, err := New(tab, Config{Shards: 4, Block: 64, Faults: FaultPlan{
			SlowShards:     []int{1},
			SlowFactor:     100, // straggler: ~100-unit latency per attempt
			SpeculateAfter: spec,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	noSpec := mk(0)
	withSpec := mk(10)
	var worseNo, worseWith, reissues int
	for trial := 0; trial < 200; trial++ {
		fp := engine.UnitFingerprint(fmt.Sprintf("q%d", trial), "G")
		cn, cw := noSpec.CompletionCost(fp), withSpec.CompletionCost(fp)
		if cn > 50 {
			worseNo++
		}
		if cw > 50 {
			worseWith++
		}
		reissues += int(withSpec.ResolveShards(fp).SpeculativeReissues)
	}
	if worseNo == 0 {
		t.Fatal("straggler model never produced a slow scan without speculation")
	}
	if worseWith >= worseNo/4 {
		t.Fatalf("speculation did not mitigate stragglers: %d slow with vs %d without", worseWith, worseNo)
	}
	if reissues == 0 {
		t.Fatal("no speculative reissues counted")
	}

	// Double failure: a shard whose primary and speculative copies both fail
	// permanently yields a deterministic error wrapping faults.ErrQueryFailed.
	hard, err := New(tab, Config{Shards: 2, Block: 64, Faults: FaultPlan{
		Policy:         faults.Policy{Seed: 3, PermanentRate: 1},
		SpeculateAfter: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err1 := hard.ScanUnit(model.EmptySubspace, "G")
	_, _, err2 := hard.ScanUnit(model.EmptySubspace, "G")
	if err1 == nil || !errors.Is(err1, faults.ErrQueryFailed) {
		t.Fatalf("double failure error = %v, want wrapping faults.ErrQueryFailed", err1)
	}
	if fmt.Sprint(err1) != fmt.Sprint(err2) {
		t.Fatalf("shard failure not deterministic: %v vs %v", err1, err2)
	}
	if st := hard.ResolveShards(engine.UnitFingerprint(model.EmptySubspace.Key(), "G")); !st.Failed {
		t.Fatal("ResolveShards does not report the failure")
	}
}

// TestShardObserverCounters smoke-checks the engine.shard.* surface.
func TestShardObserverCounters(t *testing.T) {
	tab := fracTable(26, 1000)
	o := obs.New(obs.Options{})
	s, err := New(tab, Config{Shards: 4, Block: 64, Observer: o, Faults: FaultPlan{
		SlowShards: []int{0}, SlowFactor: 50, SpeculateAfter: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", s.ShardCount())
	}
	for i := 0; i < 5; i++ {
		sub := model.NewSubspace(model.Filter{Dim: "H", Value: fmt.Sprintf("h%d", i)})
		if _, _, err := s.ScanUnit(sub, "G"); err != nil {
			t.Fatal(err)
		}
	}
	text := o.Registry().Snapshot().Text()
	for _, name := range []string{"engine.shard.shards", "engine.shard.0.scans", "engine.shard.3.scans", "engine.shard.speculative_reissues"} {
		if !strings.Contains(text, name) {
			t.Fatalf("metric %q missing from snapshot:\n%s", name, text)
		}
	}
}
