// Package shard implements sharded scan execution behind the
// engine.Substrate seam: a dataset.Table is partitioned into N row-range
// shards on morsel-block boundaries (so zone maps survive as slices of the
// parent's — see dataset.ShardView), each shard is scanned by its own
// columnar substrate, and the per-shard aggregates merge into one unit
// deterministically.
//
// # Bit-identity at any shard count
//
// Pre-folded per-shard totals cannot merge bit-identically: float addition
// is non-associative, so the addition tree would change with the shard
// count. Shards therefore return engine.BlockPartial aggregates — one per
// address-aligned block of the parent's morsel grid — and the merge folds
// every block partial in ascending global block order through the same
// reorder-window discipline the morsel scan uses for parallelism-invariance.
// Shards are contiguous block runs, so draining shard results in shard order
// visits blocks in ascending global order, and the addition tree depends
// only on the table and the block size: scans are bit-identical for any
// shard count and any scan parallelism.
//
// # Plans and costs
//
// A planner substrate over the whole table answers PlannedRows and defines
// the metered row count, so the engine's analytic cost model — and with it
// budgets, Stats and run traces — is invariant to the shard count even when
// individual shards pick different physical plan strategies (per-block
// partials are strategy-invariant, see engine/partials.go).
//
// # Faults, stragglers and speculation
//
// Each shard can run behind a simulated-remote fault schedule
// (internal/faults) with a per-shard seed. A shard whose primary copy fails,
// or whose simulated completion cost exceeds FaultPlan.SpeculateAfter, is
// re-issued speculatively against the shard's base (healthy-replica)
// schedule under an independent fingerprint. The winner is picked
// deterministically — the copy with the lower simulated completion cost,
// ties to the primary by issue order — never by wall-clock; shard data is
// identical between copies, so the winner rule shapes only the cost and
// counter model, never result bits. All shard fates are pure functions of
// the scan fingerprint (scan cost never enters the draw), which lets the
// miner's canonical commit-order replay recompute them exactly
// (engine.ShardResolver).
package shard

import (
	"fmt"
	"strconv"
	"sync"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/faults"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// Range is one shard's row range [Lo, Hi) in the parent table.
type Range struct {
	Lo, Hi int
}

// Partition cuts rows into at most shards contiguous block-aligned ranges,
// balancing whole blocks as evenly as possible (the first rows%... ranges
// get one extra block). Fewer ranges come back when the table has fewer
// blocks than requested shards; at least one range is always returned.
func Partition(rows, shards, block int) []Range {
	if block <= 0 {
		block = engine.DefaultMorselSize
	}
	nb := (rows + block - 1) / block
	if nb < 1 {
		nb = 1
	}
	if shards > nb {
		shards = nb
	}
	if shards < 1 {
		shards = 1
	}
	out := make([]Range, shards)
	per, extra := nb/shards, nb%shards
	b0 := 0
	for i := range out {
		n := per
		if i < extra {
			n++
		}
		lo, hi := b0*block, (b0+n)*block
		if hi > rows {
			hi = rows
		}
		out[i] = Range{Lo: lo, Hi: hi}
		b0 += n
	}
	return out
}

// FaultPlan is the simulated-remote schedule of a sharded substrate. The
// zero value injects nothing.
type FaultPlan struct {
	// Policy is the base per-shard fault schedule; the seed is mixed per
	// shard index so shards draw independent fates.
	Policy faults.Policy
	// Retry resolves each copy's attempts (faults.RetryPolicy semantics;
	// zero fields take the usual defaults when any injection is active).
	Retry faults.RetryPolicy
	// SlowShards lists shard indices acting as stragglers: every attempt on
	// them is charged SlowFactor× the base latency (base 1 unit when the
	// policy has none) at rate 1.
	SlowShards []int
	// SlowFactor is the straggler latency multiplier (default 10 when
	// SlowShards is set and the factor is 0).
	SlowFactor float64
	// SpeculateAfter enables speculative re-issue: when a shard's primary
	// copy fails, or its simulated completion cost exceeds this threshold,
	// a second copy is issued against the shard's base (healthy-replica)
	// schedule under an independent fingerprint. 0 disables speculation.
	SpeculateAfter float64
}

// Enabled reports whether the plan injects anything.
func (f FaultPlan) Enabled() bool {
	return f.Policy.Enabled() || (len(f.SlowShards) > 0)
}

// Validate rejects malformed plans.
func (f FaultPlan) Validate(shards int) error {
	if err := f.Policy.Validate(); err != nil {
		return err
	}
	for _, i := range f.SlowShards {
		if i < 0 || i >= shards {
			return fmt.Errorf("shard: slow shard %d outside [0, %d)", i, shards)
		}
	}
	if f.SlowFactor < 0 {
		return fmt.Errorf("shard: negative slow factor %v", f.SlowFactor)
	}
	if f.SpeculateAfter < 0 {
		return fmt.Errorf("shard: negative speculate-after %v", f.SpeculateAfter)
	}
	return nil
}

// Config configures a sharded substrate.
type Config struct {
	// Shards is the requested shard count (clamped to the block count).
	Shards int
	// Block is the partition grain and every shard's morsel size; it must be
	// shared so the global block grid is well-defined. Default
	// engine.DefaultMorselSize.
	Block int
	// ScanParallelism is each shard's intra-shard morsel parallelism.
	ScanParallelism int
	// PlanMode pins the per-shard (and planner) physical strategy.
	PlanMode engine.PlanMode
	// MinMax restricts min/max materialization, as engine.WithMinMaxColumns.
	MinMax map[string]bool
	// Concurrency caps how many shards scan at once (default: all).
	Concurrency int
	// Observer receives engine.shard.* counters and the per-shard physical
	// scan counters. Inert when nil.
	Observer *obs.Observer
	// Faults is the simulated-remote schedule.
	Faults FaultPlan
}

// shardExec is one shard: its substrate plus its fault injectors.
type shardExec struct {
	sub       *engine.ColumnarSubstrate
	baseBlock int // global block index of the shard's first block
	primary   *faults.Injector
	spec      *faults.Injector
}

// Substrate scans N table shards concurrently and merges block partials in
// deterministic global block order. It implements engine.Substrate,
// engine.RowPlanner and engine.ShardResolver.
type Substrate struct {
	planner *engine.ColumnarSubstrate // whole-table: plans, costs, merge layout
	shards  []*shardExec
	conc    int
	plan    FaultPlan
	obs     *obs.Observer
}

// mixSeed decorrelates per-shard injector seeds.
func mixSeed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
}

// New builds a sharded substrate over tab.
func New(tab *dataset.Table, cfg Config) (*Substrate, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", cfg.Shards)
	}
	block := cfg.Block
	if block <= 0 {
		block = engine.DefaultMorselSize
	}
	ranges := Partition(tab.Rows(), cfg.Shards, block)
	if err := cfg.Faults.Validate(len(ranges)); err != nil {
		return nil, err
	}
	plan := cfg.Faults
	if len(plan.SlowShards) > 0 && plan.SlowFactor == 0 {
		plan.SlowFactor = 10
	}
	subOpts := func(o *obs.Observer) []engine.ColumnarOption {
		return []engine.ColumnarOption{
			engine.WithMorselSize(block),
			engine.WithPlanMode(cfg.PlanMode),
			engine.WithMinMaxColumns(cfg.MinMax),
			engine.WithScanParallelism(cfg.ScanParallelism),
			engine.WithScanObserver(o),
		}
	}
	s := &Substrate{
		planner: engine.NewColumnarSubstrate(tab, subOpts(nil)...),
		conc:    cfg.Concurrency,
		plan:    plan,
		obs:     cfg.Observer,
	}
	slow := make(map[int]bool, len(plan.SlowShards))
	for _, i := range plan.SlowShards {
		slow[i] = true
	}
	for i, r := range ranges {
		view := tab.ShardView(r.Lo, r.Hi)
		ex := &shardExec{
			sub:       engine.NewColumnarSubstrate(view, subOpts(cfg.Observer)...),
			baseBlock: r.Lo / block,
		}
		base := plan.Policy
		base.Seed = mixSeed(base.Seed, i)
		pol := base
		if slow[i] {
			lat := pol.LatencyUnits
			if lat <= 0 {
				lat = 1
			}
			pol.LatencyRate = 1
			pol.LatencyUnits = lat * plan.SlowFactor
		}
		ex.primary = faults.NewInjector(pol, plan.Retry)
		if plan.SpeculateAfter > 0 {
			ex.spec = faults.NewInjector(base, plan.Retry)
		}
		s.shards = append(s.shards, ex)
	}
	if s.conc <= 0 || s.conc > len(s.shards) {
		s.conc = len(s.shards)
	}
	s.obs.SetGauge("engine.shard.shards", float64(len(s.shards)))
	return s, nil
}

// ShardCount returns the effective shard count after block clamping.
func (s *Substrate) ShardCount() int { return len(s.shards) }

// fate is the resolved outcome of one shard's scan under the fault plan.
type fate struct {
	ok       bool
	reissued bool
	retries  int64
	cost     float64 // winning copy's simulated completion cost
	err      error
}

// shardFate resolves shard i's fate for fingerprint fp. It is a pure
// function of (plan, i, fp): scan cost never enters any draw, so the
// physical scan path and the miner's canonical replay agree exactly.
func (s *Substrate) shardFate(i int, fp string) fate {
	ex := s.shards[i]
	sfp := fp + "|s" + strconv.Itoa(i)
	p := ex.primary.Resolve(sfp, 0)
	f := fate{ok: p.OK, retries: p.Retries(), cost: p.FaultCost, err: p.Err(sfp)}
	if s.plan.SpeculateAfter <= 0 || (p.OK && p.FaultCost <= s.plan.SpeculateAfter) {
		return f
	}
	// ex.spec may be nil (a zero base policy): the healthy replica then
	// trivially succeeds at zero cost, which nil-injector Resolve models.
	// Speculative re-issue: an independent copy against the base schedule,
	// modeling a healthy replica. It is issued once the primary has spent
	// SpeculateAfter units, so its completion cost includes that delay.
	q := ex.spec.Resolve(sfp+"|spec", 0)
	f.reissued = true
	f.retries += q.Retries()
	qCost := s.plan.SpeculateAfter + q.FaultCost
	switch {
	case p.OK && q.OK:
		if qCost < f.cost {
			f.cost = qCost // ties keep the primary: issue order, never wall-clock
		}
	case q.OK:
		f.ok, f.cost, f.err = true, qCost, nil
	case p.OK:
		// keep the primary
	default:
		if qCost > f.cost {
			f.cost = qCost // both copies exhausted; the scan fails at the later give-up
		}
	}
	return f
}

// gate resolves every shard's fate for one scan, publishes the shard
// counters, and returns the first failed shard's error (by shard order) if
// any shard lost both copies. Fates are pure per fingerprint, so the engine's
// retry of a returned error fails identically — a sharded scan failure is
// deterministic and surfaces as a failed unit.
func (s *Substrate) gate(fp string) error {
	if !s.plan.Enabled() {
		return nil
	}
	var firstErr error
	var maxCost float64
	for i := range s.shards {
		f := s.shardFate(i, fp)
		if f.reissued {
			s.obs.Count("engine.shard.speculative_reissues", 1)
		}
		if f.retries > 0 {
			s.obs.Count("engine.shard.retries", f.retries)
		}
		if !f.ok {
			s.obs.Count("engine.shard.failures", 1)
			s.obs.Count("engine.shard."+strconv.Itoa(i)+".failures", 1)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, f.err)
			}
		}
		if f.cost > maxCost {
			maxCost = f.cost
		}
	}
	if firstErr != nil {
		return firstErr
	}
	s.obs.Observe("engine.shard.completion_cost", completionCostBounds, maxCost)
	return nil
}

// completionCostBounds buckets the simulated scan completion cost (fault
// latency plus retry spending of the slowest shard's winning copy).
var completionCostBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// CompletionCost returns the simulated completion cost of one scan under the
// fault plan: the maximum over shards of the winning copy's cost (the merge
// barrier waits for the slowest shard). Pure per fingerprint; the bench
// harness uses it for the straggler-mitigation percentile curves.
func (s *Substrate) CompletionCost(fp string) float64 {
	var maxCost float64
	for i := range s.shards {
		if f := s.shardFate(i, fp); f.cost > maxCost {
			maxCost = f.cost
		}
	}
	return maxCost
}

// ResolveShards implements engine.ShardResolver: the canonical, pure shard
// accounting of one scan, recomputed by the miner's commit-order replay.
func (s *Substrate) ResolveShards(fp string) engine.ShardStats {
	var st engine.ShardStats
	if !s.plan.Enabled() {
		return st
	}
	for i := range s.shards {
		f := s.shardFate(i, fp)
		if f.reissued {
			st.SpeculativeReissues++
		}
		st.Retries += f.retries
		if !f.ok {
			st.Failed = true
		}
	}
	return st
}

// scanShards runs scan on every shard concurrently and folds each shard's
// block partials into merger strictly in shard order through a reorder
// window — the shard-level analog of the morsel merge window, and with
// contiguous shards, exactly ascending global block order.
func (s *Substrate) scanShards(merger *engine.PartialMerger, scan func(ex *shardExec) []engine.BlockPartial) {
	n := len(s.shards)
	if n == 1 || s.conc <= 1 {
		for i, ex := range s.shards {
			parts := scan(ex)
			s.foldShard(merger, i, parts)
		}
		return
	}
	var (
		mu    sync.Mutex
		ready = make([][]engine.BlockPartial, n)
		done  = make([]bool, n)
		next  int
		wg    sync.WaitGroup
		sem   = make(chan struct{}, s.conc)
	)
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			parts := scan(s.shards[i])
			<-sem
			mu.Lock()
			ready[i], done[i] = parts, true
			for next < n && done[next] {
				s.foldShard(merger, next, ready[next])
				ready[next] = nil
				next++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
}

// foldShard rebases one shard's partials to global block indices and folds
// them in order.
func (s *Substrate) foldShard(merger *engine.PartialMerger, i int, parts []engine.BlockPartial) {
	ex := s.shards[i]
	s.obs.Count("engine.shard."+strconv.Itoa(i)+".scans", 1)
	for j := range parts {
		parts[j].Block += ex.baseBlock
		merger.Fold(&parts[j])
	}
}

// ScanUnit implements engine.Substrate. The returned row count is the
// whole-table planner's — the metered cost authority — so budgets and Stats
// are shard-count-invariant; physically visited per-shard rows surface only
// through the observer.
func (s *Substrate) ScanUnit(sub model.Subspace, breakdown string) (*cache.Unit, int, error) {
	fp := engine.UnitFingerprint(sub.Key(), breakdown)
	if err := s.gate(fp); err != nil {
		return nil, 0, err
	}
	merger := s.planner.NewMerger(s.planner.UnitCells(breakdown))
	s.scanShards(merger, func(ex *shardExec) []engine.BlockPartial {
		parts, _, _ := ex.sub.ScanUnitBlocks(sub, breakdown)
		return parts
	})
	return merger.FinishUnit(sub, breakdown), s.planner.PlannedRows(sub), nil
}

// ScanAugmented implements engine.Substrate.
func (s *Substrate) ScanAugmented(base model.Subspace, breakdown, ext string) (map[string]*cache.Unit, int, error) {
	fp := engine.AugmentedFingerprint(base.Key(), breakdown, ext)
	if err := s.gate(fp); err != nil {
		return nil, 0, err
	}
	merger := s.planner.NewMerger(s.planner.AugmentedCells(breakdown, ext))
	s.scanShards(merger, func(ex *shardExec) []engine.BlockPartial {
		parts, _, _ := ex.sub.ScanAugmentedBlocks(base, breakdown, ext)
		return parts
	})
	return merger.FinishAugmented(base, breakdown, ext), s.planner.PlannedRows(base), nil
}

// Interner returns the whole-table planner's intern table, which an Engine
// over this substrate adopts: the handles it navigates are then the ones
// PlannedRows and the merge key their plans and unit keys on.
func (s *Substrate) Interner() *engine.Interner { return s.planner.Interner() }

// PlannedRows implements engine.RowPlanner via the whole-table planner.
func (s *Substrate) PlannedRows(sub model.Subspace) int {
	return s.planner.PlannedRows(sub)
}
