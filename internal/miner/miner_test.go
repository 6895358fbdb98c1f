package miner

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"metainsight/internal/core"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
	"metainsight/internal/workload"
)

var monthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

func commitTotal(s Stats) int64 {
	return s.ExpandUnits + s.DataPatternUnits + s.MetaInsightUnits
}

func miJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.All())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// plantedTable builds a small house-sales table mirroring the paper's
// running example: most cities have a sales valley in April, San Diego has
// its valley in July (highlight-change exception), Fresno is flat
// (type-change: Evenness holds instead) and Yuba is pure noise (no-pattern).
func plantedTable(t testing.TB) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("houses", []model.Field{
		{Name: "City", Kind: model.KindCategorical},
		{Name: "Month", Kind: model.KindTemporal},
		{Name: "Sales", Kind: model.KindMeasure},
		{Name: "Profit", Kind: model.KindMeasure},
	})
	valley := []float64{100, 70, 40, 10, 40, 70, 100, 100, 100, 100, 100, 100}
	julyValley := []float64{100, 100, 100, 100, 70, 40, 10, 40, 70, 100, 100, 100}
	flat := []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50}
	noise := []float64{20, 80, 80, 100, 20, 90, 60, 10, 70, 10, 50, 20}

	addCity := func(city string, series []float64) {
		for m, v := range series {
			b.AddRow([]string{city, monthNames[m]}, []float64{v, v / 10})
		}
	}
	for _, city := range []string{"Los Angeles", "San Francisco", "San Jose", "Oakland", "Sacramento"} {
		addCity(city, valley)
	}
	addCity("San Diego", julyValley)
	addCity("Fresno", flat)
	addCity("Yuba", noise)
	return b.Build()
}

func runMiner(t testing.TB, tab *dataset.Table, mutate func(*Config, *engine.Config)) *Result {
	t.Helper()
	ecfg := engine.Config{}
	cfg := DefaultConfig()
	cfg.Workers = 1
	if mutate != nil {
		mutate(&cfg, &ecfg)
	}
	eng, err := engine.New(tab, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, cfg).Run()
}

// findCityUnimodality returns the subspace-extended Unimodality MetaInsight
// over City on SUM(Sales) broken down by Month, if mined.
func findCityUnimodality(res *Result) *core.MetaInsight {
	for _, mi := range res.All() {
		h := mi.HDP.HDS
		if h.Kind == model.ExtendSubspace && h.ExtDim == "City" &&
			mi.HDP.Type == pattern.Unimodality &&
			h.Anchor.Breakdown == "Month" &&
			h.Anchor.Measure.Key() == "SUM(Sales)" &&
			h.RootSubspace().Len() == 0 {
			return mi
		}
	}
	return nil
}

func TestMinerFindsPlantedMetaInsight(t *testing.T) {
	res := runMiner(t, plantedTable(t), nil)
	if len(res.All()) == 0 {
		t.Fatal("no MetaInsights mined")
	}
	mi := findCityUnimodality(res)
	if mi == nil {
		t.Fatal("planted city-valley MetaInsight not found")
	}
	if len(mi.CommSet) != 1 {
		t.Fatalf("CommSet size = %d", len(mi.CommSet))
	}
	c := mi.CommSet[0]
	if c.Highlight.Label != "valley" || c.Highlight.Positions[0] != "Apr" {
		t.Errorf("commonness highlight = %v", c.Highlight)
	}
	if len(c.Indices) != 5 {
		t.Errorf("commonness covers %d cities, want 5", len(c.Indices))
	}
	cats := map[core.ExceptionCategory][]string{}
	for _, e := range mi.Exceptions {
		dp := mi.HDP.Patterns[e.Index]
		city, _ := dp.Scope.Subspace.Get("City")
		cats[e.Category] = append(cats[e.Category], city)
	}
	if got := cats[core.HighlightChange]; len(got) != 1 || got[0] != "San Diego" {
		t.Errorf("highlight-change exceptions = %v", got)
	}
	if got := cats[core.TypeChange]; len(got) != 1 || got[0] != "Fresno" {
		t.Errorf("type-change exceptions = %v", got)
	}
	if got := cats[core.NoPatternException]; len(got) != 1 || got[0] != "Yuba" {
		t.Errorf("no-pattern exceptions = %v", got)
	}
	// Root is the whole dataset → impact 1; score = conciseness.
	if mi.ImpactHDS != 1 {
		t.Errorf("ImpactHDS = %v", mi.ImpactHDS)
	}
	if mi.Score <= 0 || mi.Score > 1 {
		t.Errorf("score = %v", mi.Score)
	}
}

func TestMinerDeterministicSingleWorker(t *testing.T) {
	tab := plantedTable(t)
	a := runMiner(t, tab, nil)
	b := runMiner(t, tab, nil)
	if len(a.All()) != len(b.All()) {
		t.Fatalf("run sizes differ: %d vs %d", len(a.All()), len(b.All()))
	}
	for i := range a.All() {
		if a.All()[i].Key() != b.All()[i].Key() {
			t.Fatalf("ordering differs at %d", i)
		}
	}
}

func sameKeySets(t *testing.T, a, b *Result, label string) {
	t.Helper()
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("%s: %d vs %d MetaInsights", label, len(ka), len(kb))
	}
	for k := range ka {
		if !kb[k] {
			t.Fatalf("%s: key %q missing", label, k)
		}
	}
}

func TestAblationsPreserveResultsUnderUnlimitedBudget(t *testing.T) {
	tab := plantedTable(t)
	full := runMiner(t, tab, nil)
	noQC := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.EnableQueryCache = false
	})
	noPC := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.EnablePatternCache = false
	})
	fifo := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.UsePriorityQueues = false
	})
	noP1 := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.EnablePruning1 = false
	})
	sameKeySets(t, full, noQC, "query cache off")
	sameKeySets(t, full, noPC, "pattern cache off")
	sameKeySets(t, full, fifo, "FIFO queue")
	sameKeySets(t, full, noP1, "pruning 1 off")

	// The optimizations change cost, not results: disabling the query cache
	// must execute strictly more scans.
	if noQC.Stats.ExecutedQueries <= full.Stats.ExecutedQueries {
		t.Errorf("query cache off executed %d scans vs %d with cache",
			noQC.Stats.ExecutedQueries, full.Stats.ExecutedQueries)
	}
	if full.Stats.QueryCacheStats.Hits == 0 {
		t.Error("query cache never hit")
	}
	if full.Stats.PatternCacheStats.Hits == 0 {
		t.Error("pattern cache never hit")
	}
}

// TestAblationsIgnoreWarmMemos: the "w/o Query Cache" and "w/o Pattern
// Cache" ablations are settings of the commit-order replay, not memos that
// keep nothing, so on an engine whose interner a full-functionality run has
// already filled, their results, statistics (cache statistics, executed
// queries and cost included) and traces equal a cold run's, at 1 and 8
// workers, while the warm run scans less.
func TestAblationsIgnoreWarmMemos(t *testing.T) {
	tab := workload.CreditCard()
	run := func(in *engine.Interner, workers int, mutate func(*Config)) (*Result, []traceLine, int64) {
		t.Helper()
		ob, phys := obs.New(obs.Options{TraceCapacity: 1 << 18}), obs.New(obs.Options{})
		eng, err := engine.New(tab, engine.Config{Interner: in, Observer: phys})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Observer = ob
		if mutate != nil {
			mutate(&cfg)
		}
		return New(eng, cfg).Run(), traceOf(ob), phys.Snapshot().Counters["engine.physical.scans"]
	}
	for _, arm := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"w/o Query Cache", func(c *Config) { c.EnableQueryCache = false }},
		{"w/o Pattern Cache", func(c *Config) { c.EnablePatternCache = false }},
	} {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s workers=%d", arm.name, workers)
			cold, coldTrace, coldScans := run(nil, workers, arm.mutate)
			in := engine.NewInterner(tab)
			run(in, workers, nil)
			warm, warmTrace, warmScans := run(in, workers, arm.mutate)
			assertSameOrderedKeys(t, label, cold, warm)
			if warm.Stats != cold.Stats {
				t.Errorf("%s: stats differ\n  cold: %+v\n  warm: %+v", label, cold.Stats, warm.Stats)
			}
			if !reflect.DeepEqual(warmTrace, coldTrace) {
				t.Errorf("%s: trace differs (%d events warm, %d cold)", label, len(warmTrace), len(coldTrace))
			}
			if len(cold.All()) == 0 || warmScans >= coldScans {
				t.Errorf("%s: vacuous: %d MetaInsights, %d scans warm against %d cold",
					label, len(cold.All()), warmScans, coldScans)
			}
		}
	}
}

func TestPruning1OnlySkipsInvalidHDPs(t *testing.T) {
	// With pruning 1 enabled some HDP evaluations terminate early; the
	// result set must be unchanged (checked above), and the pruning must
	// actually fire on this data (Yuba/Fresno-style HDPs with no majority).
	res := runMiner(t, plantedTable(t), nil)
	if res.Stats.Pruned1 == 0 {
		t.Error("pruning 1 never fired on planted data")
	}
}

func TestCostBudgetIsProgressive(t *testing.T) {
	tab := plantedTable(t)
	full := runMiner(t, tab, nil)
	small := runMiner(t, tab, func(c *Config, e *engine.Config) {
		c.Budget = Budget{Cost: 40}
	})
	if len(small.All()) >= len(full.All()) {
		t.Skipf("budget too generous: %d vs %d", len(small.All()), len(full.All()))
	}
	// Whatever was found under the small budget must be a subset of the
	// unlimited run's results.
	fullKeys := full.Keys()
	for k := range small.Keys() {
		if !fullKeys[k] {
			t.Errorf("budgeted run invented key %q", k)
		}
	}
}

func TestMultiWorkerMatchesSingleWorker(t *testing.T) {
	tab := plantedTable(t)
	one := runMiner(t, tab, nil)
	eight := runMiner(t, tab, func(c *Config, e *engine.Config) { c.Workers = 8 })
	sameKeySets(t, one, eight, "8 workers")
}

func TestMeasureExtendedMetaInsight(t *testing.T) {
	// Sales and Profit are proportional in the planted table, so the
	// measure-extended HDP at the whole-dataset scope shares highlights
	// across measures (COUNT(*) differs — it is uniform).
	res := runMiner(t, plantedTable(t), nil)
	found := false
	for _, mi := range res.All() {
		if mi.HDP.HDS.Kind == model.ExtendMeasure {
			found = true
			break
		}
	}
	if !found {
		t.Error("no measure-extended MetaInsight mined")
	}
}

func TestSubspaceDepthRespected(t *testing.T) {
	res := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.MaxSubspaceFilters = 1
	})
	for _, mi := range res.All() {
		if mi.HDP.HDS.Anchor.Subspace.Len() > 1 {
			t.Fatalf("anchor %v exceeds depth 1", mi.HDP.HDS.Anchor.Subspace)
		}
	}
}

func TestResultSortedByScore(t *testing.T) {
	res := runMiner(t, plantedTable(t), nil)
	for i := 1; i < len(res.All()); i++ {
		if res.All()[i].Score > res.All()[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

func TestMinImpactPruning2(t *testing.T) {
	res := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.MinImpact = 0.99 // everything except whole-dataset HDSs pruned
	})
	for _, mi := range res.All() {
		if minClamp(mi.ImpactHDS) < 0.99 {
			t.Fatalf("MetaInsight with impact %v survived pruning 2", mi.ImpactHDS)
		}
	}
	if res.Stats.Pruned2 == 0 {
		t.Error("pruning 2 never fired")
	}
}

func TestKeysAreHDSScoped(t *testing.T) {
	res := runMiner(t, plantedTable(t), nil)
	for k := range res.Keys() {
		if !strings.ContainsAny(k, "SMB") {
			t.Fatalf("malformed key %q", k)
		}
	}
}

func TestPatternsFirstPreservesResults(t *testing.T) {
	tab := plantedTable(t)
	merged := runMiner(t, tab, nil)
	pf := runMiner(t, tab, func(c *Config, e *engine.Config) { c.PatternsFirst = true })
	sameKeySets(t, merged, pf, "patterns-first schedule")
	// The merged schedule lets augmented prefetches serve the pattern
	// module, so it never executes more scans than the module-feeding order.
	if merged.Stats.ExecutedQueries > pf.Stats.ExecutedQueries {
		t.Errorf("merged schedule executed %d scans vs %d under patterns-first",
			merged.Stats.ExecutedQueries, pf.Stats.ExecutedQueries)
	}
}

func TestImpactMeasureChoiceHasModestEffect(t *testing.T) {
	// Section 5.1.1: the paper sets COUNT(*) as the impact measure "for
	// simplicity" and notes the choice has a negligible effect on
	// efficiency. Mining with SUM(Sales) as the impact measure must find the
	// planted MetaInsight too, at comparable query cost.
	tab := plantedTable(t)
	count := runMiner(t, tab, nil)
	sum := runMiner(t, tab, func(c *Config, e *engine.Config) {
		e.ImpactMeasure = model.Sum("Sales")
	})
	if findCityUnimodality(count) == nil || findCityUnimodality(sum) == nil {
		t.Fatal("planted MetaInsight lost under an impact-measure change")
	}
	ratio := float64(sum.Stats.ExecutedQueries) / float64(count.Stats.ExecutedQueries)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("impact-measure choice changed query count by %.1fx", ratio)
	}
}

func TestBudgetPrefixMonotonicity(t *testing.T) {
	// With one worker and deterministic cost budgets, a larger budget's
	// result set is a superset of a smaller budget's: results are only ever
	// appended as the run progresses.
	tab := plantedTable(t)
	var prev map[string]bool
	for _, limit := range []float64{20, 40, 80, 160, 1e9} {
		res := runMiner(t, tab, func(c *Config, e *engine.Config) {
			c.Budget = Budget{Cost: limit}
		})
		keys := res.Keys()
		for k := range prev {
			if !keys[k] {
				t.Fatalf("budget %.0f lost key %q found at a smaller budget", limit, k)
			}
		}
		prev = keys
	}
}

// assertSameStats asserts two runs' statistics are bit-identical, except
// QueryCacheStats.Bytes, which is documented reporting-only (see
// accounting.queryStats).
func assertSameStats(t *testing.T, label string, a, b Stats) {
	t.Helper()
	a.QueryCacheStats.Bytes = 0
	b.QueryCacheStats.Bytes = 0
	if a != b {
		t.Errorf("%s: stats differ\n  w1: %+v\n  wN: %+v", label, a, b)
	}
}

// assertSameOrderedKeys asserts the result lists are identical including
// their (score-sorted) order.
func assertSameOrderedKeys(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.All()) != len(b.All()) {
		t.Errorf("%s: result sizes differ: %d vs %d", label, len(a.All()), len(b.All()))
		return
	}
	for i := range a.All() {
		if a.All()[i].Key() != b.All()[i].Key() {
			t.Errorf("%s: result %d differs: %q vs %q", label, i,
				a.All()[i].Key(), b.All()[i].Key())
			return
		}
	}
}

// TestMultiWorkerDeterministicAccounting is the determinism regression test
// for the canonical-commit dispatcher: for every scheduler variant and for a
// finite budget, Workers=1 and Workers=8 must produce identical ordered
// results and bit-identical statistics — executed/augmented/served query
// counts, metered cost, cache hit/miss/entry counts, unit and pruning
// counters. Run it with -race to also exercise the concurrency soundness.
func TestMultiWorkerDeterministicAccounting(t *testing.T) {
	tab := plantedTable(t)
	variants := []struct {
		name   string
		mutate func(*Config, *engine.Config)
	}{
		{"priority", nil},
		{"patterns-first", func(c *Config, e *engine.Config) { c.PatternsFirst = true }},
		{"fifo", func(c *Config, e *engine.Config) { c.UsePriorityQueues = false }},
		{"fifo+patterns-first", func(c *Config, e *engine.Config) {
			c.UsePriorityQueues = false
			c.PatternsFirst = true
		}},
		{"no-query-cache", func(c *Config, e *engine.Config) { c.EnableQueryCache = false }},
		{"no-pattern-cache", func(c *Config, e *engine.Config) { c.EnablePatternCache = false }},
		{"budget60", func(c *Config, e *engine.Config) {
			c.Budget = Budget{Cost: 60}
		}},
	}
	for _, v := range variants {
		run := func(workers int) *Result {
			return runMiner(t, tab, func(c *Config, e *engine.Config) {
				if v.mutate != nil {
					v.mutate(c, e)
				}
				c.Workers = workers
			})
		}
		one := run(1)
		eight := run(8)
		assertSameOrderedKeys(t, v.name, one, eight)
		assertSameStats(t, v.name, one.Stats, eight.Stats)
		if one.Stats.ExecutedQueries == 0 {
			t.Errorf("%s: no queries executed (vacuous)", v.name)
		}
	}
}

// TestProgressCallbackOrderIsDeterministic asserts OnMetaInsight fires in
// the same (commit) order regardless of worker count.
func TestProgressCallbackOrderIsDeterministic(t *testing.T) {
	tab := plantedTable(t)
	discover := func(workers int) []string {
		var order []string
		runMiner(t, tab, func(c *Config, e *engine.Config) {
			c.Workers = workers
			c.OnMetaInsight = func(mi *core.MetaInsight) {
				order = append(order, mi.Key())
			}
		})
		return order
	}
	one := discover(1)
	eight := discover(8)
	if len(one) == 0 {
		t.Fatal("no MetaInsights discovered")
	}
	if len(one) != len(eight) {
		t.Fatalf("discovery counts differ: %d vs %d", len(one), len(eight))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("discovery order differs at %d: %q vs %q", i, one[i], eight[i])
		}
	}
}

// TestTauOverrideScoresSanely mines at a τ other than the default: the run
// must read the override, accept only commonnesses above it, and keep every
// score in (0, 1] (γ > 0 keeps a perfect commonness below 1).
func TestTauOverrideScoresSanely(t *testing.T) {
	tab := plantedTable(t)
	eng, err := engine.New(tab, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tau = 0.6
	m := New(eng, cfg)
	if m.cfg.Tau != 0.6 {
		t.Errorf("Tau = %v, want 0.6 (explicit override)", m.cfg.Tau)
	}
	res := m.Run()
	if len(res.All()) == 0 {
		t.Fatal("no MetaInsights at τ = 0.6")
	}
	for _, mi := range res.All() {
		if mi.Score <= 0 || mi.Score > 1 {
			t.Fatalf("score out of range at τ = 0.6: %v", mi.Score)
		}
		for _, c := range mi.CommSet {
			if c.Ratio <= 0.6 {
				t.Fatalf("commonness ratio %v does not clear τ = 0.6", c.Ratio)
			}
		}
	}
}
