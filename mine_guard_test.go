package metainsight_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"metainsight"
	"metainsight/internal/workload"
)

const (
	// blessedMineAllocs is the heap-allocation count of one warm
	// Session.Analyze over Sales Forecast (one worker, unbudgeted, TopK 10)
	// as testing.AllocsPerRun reports it, re-blessed when a qualified
	// candidate came to be kept as a pointer-free row, with a MetaInsight
	// built only for the ranked top k, and admitted candidates to wait in an
	// unboxed heap of values (the same measurement gave 69,900 before,
	// 170,300 before candidates stayed values until admitted and completions
	// were recycled, 212,971 before pattern evaluations came to live on the
	// session, and 1,503,070 before subspaces were interned).
	blessedMineAllocs = 1760
	// blessedMineBytes is the bytes the same warm Analyze allocates, as
	// warmAnalyzeBytes reads them, re-blessed with blessedMineAllocs (the
	// same measurement gave 7,030,000 before, 31,330,000 before that, and
	// 37,450,000 when units, scopes and the replay's usage events were named
	// by strings).
	blessedMineBytes = 392400
	// blessedColdAllocs is the heap-allocation count of the first
	// Session.Analyze on a fresh session over the benchmark's generated table
	// at its quick scale (one worker, unbudgeted, TopK 10), re-blessed with
	// blessedMineAllocs (the same measurement gave 156,000 before, 258,700
	// before units came to be stored as pointer-free values, 264,600 before
	// every multi-filter plan became the exact posting intersection, and
	// 266,000 when plans held row lists).
	blessedColdAllocs = 86000
	// mineAllocsSlack is how far past the blessed count a run may go.
	mineAllocsSlack = 1.05
	// scanParAllocsSlack bounds what ScanParallelism 4 may allocate relative
	// to ScanParallelism 1 on a table that fits one morsel. The two counts
	// agree to within 0.03 % run to run, and sending every scan through the
	// goroutine fan-out adds 1.4 %, so the bound sits between the two.
	scanParAllocsSlack = 1.005
	// defaultParSlack bounds what the default scan parallelism may allocate,
	// in objects and in bytes, relative to ScanParallelism 1 on a table of
	// several morsels: spreading a scan costs one small shared-state object
	// per scan, not an accumulator per morsel.
	defaultParSlack = 1.01
)

// warmAnalyzeAllocs reports the allocations of one warm Analyze on a session
// over tab. AllocsPerRun's own warm-up call is the session's first Analyze,
// which builds the plans and the intern table every later request reuses.
func warmAnalyzeAllocs(t *testing.T, tab *metainsight.Dataset, req metainsight.Request, opts ...metainsight.Option) float64 {
	t.Helper()
	sess, err := metainsight.NewSession(tab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	return testing.AllocsPerRun(3, func() {
		if _, err := sess.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
}

// coldAnalyzeAllocs reports the allocations of the first Analyze on a fresh
// session over tab: the one that interns every subspace and builds every
// plan. The table's posting sets are built on AllocsPerRun's warm-up call and
// shared by every session after it.
func coldAnalyzeAllocs(t *testing.T, tab *metainsight.Dataset, req metainsight.Request, opts ...metainsight.Option) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		sess, err := metainsight.NewSession(tab, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
}

// warmAnalyzeBytes reports the allocations and allocated bytes of one warm
// Analyze on a session over tab, from the runtime's own totals, with
// GOMAXPROCS as the caller set it (AllocsPerRun measures at GOMAXPROCS 1). It
// is the lowest of three readings of three calls each: what the pools hand
// back depends on where the collector's cycles fall, which moves a reading up
// by a few tenths of a percent and never down.
func warmAnalyzeBytes(t *testing.T, tab *metainsight.Dataset, req metainsight.Request, opts ...metainsight.Option) (allocs, bytes float64) {
	t.Helper()
	sess, err := metainsight.NewSession(tab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	analyze := func() {
		if _, err := sess.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	analyze() // builds the plans and the intern table
	const readings, calls = 3, 3
	allocs, bytes = math.Inf(1), math.Inf(1)
	for r := 0; r < readings; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			analyze()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/calls)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return allocs, bytes
}

// TestMineAllocsGuard pins the allocation bill of one warm Session.Analyze.
// Mining is allocator- and GC-bound on tables this size, so an allocation
// regression is a latency regression. The counts are near-deterministic at
// one worker (pools and the Go scheduler move them by well under a percent),
// which is why this guard holds counts, not clocks, and runs in every plain
// `go test`.
func TestMineAllocsGuard(t *testing.T) {
	if raceEnabled {
		// The miner recycles completions and its key sets through
		// sync.Pools, which the race runtime empties at random; CI runs this
		// guard in a step without -race.
		t.Skip("allocation counts under the race detector do not measure the program")
	}
	allocs := warmAnalyzeAllocs(t, workload.SalesForecast(), metainsight.Request{TopK: 10}, metainsight.WithWorkers(1))
	limit := blessedMineAllocs * mineAllocsSlack
	t.Logf("allocations per warm Analyze: %.0f (blessed %d, limit %.0f)", allocs, blessedMineAllocs, limit)
	if allocs > limit {
		t.Errorf("allocations per warm Analyze regressed: %.0f exceeds blessed %d x %.2f = %.0f",
			allocs, blessedMineAllocs, mineAllocsSlack, limit)
	}

	// The bytes arm, at GOMAXPROCS 1 as AllocsPerRun measures: usage events
	// or memo keys that grow fat again show here before the allocation count
	// moves. The deferred restore also runs when warmAnalyzeBytes fails the
	// test, so the package's later tests keep their GOMAXPROCS.
	mineBytes := func() float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		_, b := warmAnalyzeBytes(t, workload.SalesForecast(), metainsight.Request{TopK: 10}, metainsight.WithWorkers(1))
		return b
	}()
	bytesLimit := blessedMineBytes * mineAllocsSlack
	t.Logf("bytes per warm Analyze: %.0f (blessed %d, limit %.0f)", mineBytes, blessedMineBytes, bytesLimit)
	if mineBytes > bytesLimit {
		t.Errorf("bytes per warm Analyze regressed: %.0f exceeds blessed %d x %.2f = %.0f",
			mineBytes, blessedMineBytes, mineAllocsSlack, bytesLimit)
	}

	// Credit Card's 1920 rows fit inside one 8192-row morsel, so every scan
	// must stay on the inline single-morsel path whatever the parallelism:
	// goroutine fan-out, a merge window or per-morsel partials leaking into
	// small-table scans would show up here as extra allocations.
	req := metainsight.Request{TopK: 10, Budget: metainsight.Budget{Cost: 400}}
	par1 := warmAnalyzeAllocs(t, workload.CreditCard(), req, metainsight.WithWorkers(1), metainsight.WithScanParallelism(1))
	par4 := warmAnalyzeAllocs(t, workload.CreditCard(), req, metainsight.WithWorkers(1), metainsight.WithScanParallelism(4))
	t.Logf("Credit Card budget-400 allocations: scan parallelism 1 %.0f, 4 %.0f", par1, par4)
	if par4 > par1*scanParAllocsSlack {
		t.Errorf("scan parallelism 4 allocates %.0f on a one-morsel table, more than %.3f x the %.0f of parallelism 1",
			par4, scanParAllocsSlack, par1)
	}

	// The benchmark's generated table at its quick scale is 13 morsels, so at
	// the default scan parallelism its unfiltered and lightly filtered scans do
	// spread whenever there is more than one core. A goroutine keeps one
	// partial accumulator for all the morsels it takes; were it to take a
	// pooled accumulator per morsel, as it once did, the pool would grow with
	// the merge skew and this arm would show it in bytes.
	gen := workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30})
	req = metainsight.Request{TopK: 10}

	// The first request on a session plans every subspace it touches, so a
	// plan representation that costs allocations shows here and not in the
	// warm arms.
	cold := coldAnalyzeAllocs(t, gen, req, metainsight.WithWorkers(1))
	limit = blessedColdAllocs * mineAllocsSlack
	t.Logf("allocations per cold Analyze over gen quick: %.0f (blessed %d, limit %.0f)", cold, blessedColdAllocs, limit)
	if cold > limit {
		t.Errorf("allocations per cold Analyze regressed: %.0f exceeds blessed %d x %.2f = %.0f",
			cold, blessedColdAllocs, mineAllocsSlack, limit)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		// Both arms at the same GOMAXPROCS: the pools are per P, so the core
		// count moves what they retain whatever the scans do.
		runtime.GOMAXPROCS(procs)
		seqAllocs, seqBytes := warmAnalyzeBytes(t, gen, req, metainsight.WithWorkers(1), metainsight.WithScanParallelism(1))
		allocs, bytes := warmAnalyzeBytes(t, gen, req, metainsight.WithWorkers(1))
		t.Logf("gen quick, GOMAXPROCS %d: default scan parallelism %.0f allocations / %.0f bytes, sequential %.0f / %.0f (x%.4f / x%.4f)",
			procs, allocs, bytes, seqAllocs, seqBytes, allocs/seqAllocs, bytes/seqBytes)
		if allocs > seqAllocs*defaultParSlack || bytes > seqBytes*defaultParSlack {
			t.Errorf("GOMAXPROCS %d: default scan parallelism allocates %.0f objects / %.0f bytes, more than %.2f x the sequential %.0f / %.0f",
				procs, allocs, bytes, defaultParSlack, seqAllocs, seqBytes)
		}
	}
}

// TestWarmRequestAllocatesNoTable: the memos and the replay's simulated
// caches are arrays indexed by the session's ordinals, grown as the session
// interns and reused by every later request, so a warm request allocates
// nothing in proportion to them. On a Sales Forecast session, a request of
// another shape (a SUM impact) and 4,000 foreign subspaces more than triple
// the intern table, and the default request allocates the same bytes after
// that as before: replay arrays sized to the table and made per run would
// add about 6 % here.
func TestWarmRequestAllocatesNoTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector do not measure the program")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sess, err := metainsight.NewSession(workload.SalesForecast(), metainsight.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	analyze := func(req metainsight.Request) *metainsight.Analysis {
		t.Helper()
		req.Observer = metainsight.NewObserver(metainsight.ObserverOptions{})
		an, err := sess.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	def := metainsight.Request{TopK: 10}
	// warmBytes is the lowest of three readings of three warm requests.
	warmBytes := func() float64 {
		bytes := math.Inf(1)
		for r := 0; r < 3; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 3; i++ {
				if _, err := sess.Analyze(context.Background(), def); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/3)
		}
		return bytes
	}
	small := analyze(def).Snapshot().Gauges["engine.interned_handles"]
	before := warmBytes()
	other := analyze(metainsight.Request{TopK: 10, ImpactMeasure: metainsight.Sum("Units")})
	for i := 0; i < 4000; i++ {
		other.Engine().Intern(metainsight.Subspace{{Dim: "Region", Value: fmt.Sprintf("Elsewhere %d", i)}})
	}
	large := analyze(def).Snapshot().Gauges["engine.interned_handles"]
	after := warmBytes()
	t.Logf("interned handles %v -> %v; bytes per warm request %.0f -> %.0f (x%.4f)", small, large, before, after, after/before)
	if large < 3*small {
		t.Fatalf("the intern table grew from %v to only %v handles: the test is too weak", small, large)
	}
	if after > before*warmTableSlack || before > after*warmTableSlack {
		t.Errorf("a warm request allocates %.0f bytes after the intern table grew and %.0f before, more than x%.2f apart", after, before, warmTableSlack)
	}
}

// warmTableSlack bounds how far apart the warm request's bytes may read
// before and after the session's tables grew.
const warmTableSlack = 1.02

// blessedPlanBytes is what the memoized scan plans hold after one
// Analyze(TopK 10) at one worker on a fresh session over the benchmark's
// generated table at its quick scale ("engine.physical.plan_bytes": driving
// runs), blessed when plans came to hold runs of
// consecutive rows (the same plans held 5,528,156 bytes as row lists), and
// re-blessed when the unfiltered plan came to hold its one run [0, rows),
// so that every scan walks runs: 16 bytes more, the run and its sentinel.
const blessedPlanBytes = 179408

// blessedRunEnds is how many long code runs (dataset.MinCodeRun rows or
// more) the dimension columns of the benchmark's generated table at its
// quick scale keep for the scan to jump, 4 bytes each.
const blessedRunEnds = 3752

// TestRunEndsBytesGuard pins the memory the dimension columns' run ends keep
// beside their posting sets: exactly blessedRunEnds entries (15,008 bytes)
// on the benchmark's generated table at its quick scale, and under 0.25
// bytes per row on a row-shuffled copy, the order where keeping every run
// instead of the long ones would cost more than the posting sets.
func TestRunEndsBytesGuard(t *testing.T) {
	runEnds := func(tab *metainsight.Dataset) int {
		n := 0
		for _, d := range tab.Dimensions() {
			n += len(d.RunEnds())
		}
		return n
	}
	gen := workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30})
	n := runEnds(gen)
	t.Logf("gen quick: %d run ends, %d bytes (%.3f per row)", n, 4*n, float64(4*n)/float64(gen.Rows()))
	if n != blessedRunEnds {
		t.Errorf("gen quick keeps %d run ends, blessed %d", n, blessedRunEnds)
	}
	shuffled := permuted(gen, 1)
	perRow := float64(4*runEnds(shuffled)) / float64(shuffled.Rows())
	t.Logf("row-shuffled gen quick: %.3f bytes of run ends per row", perRow)
	if perRow >= 0.25 {
		t.Errorf("row-shuffled gen quick keeps %.3f bytes of run ends per row, want under 0.25", perRow)
	}
}

// TestPlanBytesGuard pins the memory a session's plans keep. Plans live as
// long as the session's substrate, one per distinct subspace mined, so their
// size is the growth rate of a resident session; the count is exact at one
// worker.
func TestPlanBytesGuard(t *testing.T) {
	tab := workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30})
	sess, err := metainsight.NewSession(tab, metainsight.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ob := metainsight.NewObserver(metainsight.ObserverOptions{})
	if _, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10, Observer: ob}); err != nil {
		t.Fatal(err)
	}
	got := ob.Snapshot().Counters["engine.physical.plan_bytes"]
	limit := blessedPlanBytes * scanTrafficSlack
	t.Logf("engine.physical.plan_bytes: %d (blessed %d, limit %.0f)", got, blessedPlanBytes, limit)
	if float64(got) > limit {
		t.Errorf("plan bytes regressed: %d exceeds blessed %d x %.2f = %.0f", got, blessedPlanBytes, scanTrafficSlack, limit)
	}
}

const (
	// blessedAugmentedScans and blessedScanRows are the physical augmented
	// scans and row visits ("engine.physical.*") of one Analyze(TopK 10) at
	// one worker over the benchmark's generated table at its quick scale,
	// blessed when each unordered {breakdown, ext} pair came to be scanned
	// once (the same measurement gave 342 scans and 4,692,347 rows before).
	blessedAugmentedScans = 232
	blessedScanRows       = 3092983
	// scanTrafficSlack is how far past a blessed count a run may go.
	scanTrafficSlack = 1.02
)

// TestScanTrafficGuard pins how much physical scanning one request does. The
// counts are exact at one worker, so a change that quietly re-doubles the
// augmented scans, or sends filtered scans over more rows, fails here without
// a benchmark run.
func TestScanTrafficGuard(t *testing.T) {
	tab := workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 1, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30})
	sess, err := metainsight.NewSession(tab, metainsight.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ob := metainsight.NewObserver(metainsight.ObserverOptions{})
	if _, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10, Observer: ob}); err != nil {
		t.Fatal(err)
	}
	counters := ob.Snapshot().Counters
	for _, c := range []struct {
		name    string
		blessed int64
	}{
		{"engine.physical.augmented_scans", blessedAugmentedScans},
		{"engine.physical.rows", blessedScanRows},
	} {
		got, limit := counters[c.name], int64(float64(c.blessed)*scanTrafficSlack)
		t.Logf("%s: %d (blessed %d, limit %d)", c.name, got, c.blessed, limit)
		if got > limit {
			t.Errorf("%s regressed: %d exceeds blessed %d x %.2f = %d", c.name, got, c.blessed, scanTrafficSlack, limit)
		}
	}
}

const (
	// blessedRetainedObjects is how many heap objects a Sales Forecast
	// session keeps after its first Analyze(TopK 10) at one worker: its intern
	// table and plans, the units its scans produced and the scopes it
	// evaluated, which every later request reuses. It was blessed when units
	// came to be stored as values whose arrays hold no pointers, one pair of
	// arrays per scan (the same measurement gave 48,040 when every unit was a
	// struct with a slice of keys and three maps).
	blessedRetainedObjects = 32000
	// retainedSlack is how far past the blessed count a reading may go: the
	// count is exact up to the few objects the runtime keeps for itself.
	retainedSlack = 1.03
)

// heapObjects returns the live heap objects after two collections, the
// second of which drops what sync.Pools kept through the first.
func heapObjects() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}

// TestWarmSessionRetainedObjects pins what a resident session keeps for the
// collector to walk: every collection marks all of it, so on the warm path,
// where a request scans and evaluates nothing, the count is what a
// collection costs. It is the objects live after a session's first request
// minus those live before it.
func TestWarmSessionRetainedObjects(t *testing.T) {
	sess, err := metainsight.NewSession(workload.SalesForecast(), metainsight.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before := heapObjects()
	if _, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10}); err != nil {
		t.Fatal(err)
	}
	retained := int64(heapObjects()) - int64(before)
	limit := blessedRetainedObjects * retainedSlack
	t.Logf("objects a Sales Forecast session retains after its first request: %d (blessed %d, limit %.0f)", retained, blessedRetainedObjects, limit)
	if float64(retained) > limit {
		t.Errorf("retained objects regressed: %d exceeds blessed %d x %.2f = %.0f", retained, blessedRetainedObjects, retainedSlack, limit)
	}
	runtime.KeepAlive(sess)
}
