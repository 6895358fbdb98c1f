package engine

// Block-granular partial aggregation: the scan layer of sharded execution
// (internal/shard). A sharded scan cannot simply merge N pre-folded per-shard
// accumulators — float addition is non-associative, so folding shard totals
// would give a different addition tree at every shard count. Instead each
// shard emits one compressed partial per address-aligned block (the morsel
// grid of the parent table), and the shard layer folds every block partial in
// ascending global block order. The addition tree then depends only on the
// global block grid — a property of the table and the block size — and is
// invariant to how many shards the grid is cut into, which is the whole
// bit-identity argument (DESIGN.md §10).
//
// Per-block partials are also invariant to the plan strategy: every filtered
// path (intersection drive, residual verification, zone scan) selects the
// same row set per block and accumulates it in ascending row order with
// per-element updates, so intersect/residual/zone produce byte-identical
// partials; the lane-split contiguous kernel runs only for unfiltered scans,
// where it is the single strategy and blocks coincide with its morsels.

import (
	"sync"
	"sync/atomic"

	"metainsight/internal/cache"
	"metainsight/internal/model"
)

// BlockPartial is the compressed aggregate state one block contributed to a
// scan: the touched accumulator cells (in first-touch order) and their
// counts, per-measure sums, and min/max for measures in the needed-aggregate
// set (nil otherwise). Cell ids are global — shard views share the parent
// dictionary — so partials from different shards fold into one accumulator
// directly.
type BlockPartial struct {
	Block  int // global block index (callers rebase shard-local indices)
	Cells  []int32
	Counts []float64
	Sums   [][]float64 // [measure][cell index]
	Mins   [][]float64 // nil per measure when min/max not materialized
	Maxs   [][]float64
}

// blockTask is one unit of partial-scan work: driving range [lo, hi) of one
// block — row addresses for full and zone plans, drive-list positions for
// posting-list plans.
type blockTask struct {
	block  int
	lo, hi int
}

// blockTasks cuts the plan's driving set into per-block tasks, ascending by
// block. Posting-list plans bucket their (sorted) drive rows by row address,
// not list position: the block grid must be the table's address grid or the
// merge tree would depend on the filter's row distribution.
func (c *ColumnarSubstrate) blockTasks(plan *scanPlan) []blockTask {
	switch {
	case plan.full:
		rows := c.tab.Rows()
		nb := (rows + c.morsel - 1) / c.morsel
		tasks := make([]blockTask, nb)
		for b := 0; b < nb; b++ {
			hi := (b + 1) * c.morsel
			if hi > rows {
				hi = rows
			}
			tasks[b] = blockTask{block: b, lo: b * c.morsel, hi: hi}
		}
		return tasks
	case plan.zone:
		rows := c.tab.Rows()
		tasks := make([]blockTask, len(plan.zblocks))
		for i, b := range plan.zblocks {
			lo := int(b) * c.morsel
			hi := lo + c.morsel
			if hi > rows {
				hi = rows
			}
			tasks[i] = blockTask{block: int(b), lo: lo, hi: hi}
		}
		return tasks
	default:
		var tasks []blockTask
		for i := 0; i < len(plan.drive); {
			b := int(plan.drive[i]) / c.morsel
			j := i + 1
			for j < len(plan.drive) && int(plan.drive[j])/c.morsel == b {
				j++
			}
			tasks = append(tasks, blockTask{block: b, lo: i, hi: j})
			i = j
		}
		return tasks
	}
}

// compressAcc snapshots an accumulator's touched cells into a BlockPartial.
// An untouched block compresses to the zero partial (dropped by callers).
func (c *ColumnarSubstrate) compressAcc(block int, acc *scanAcc) BlockPartial {
	n := len(acc.touched)
	p := BlockPartial{Block: block}
	if n == 0 {
		return p
	}
	nmeas := len(c.mcols)
	slab := make([]float64, n*(1+nmeas+2*c.nmm))
	next := func() []float64 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	p.Cells = append([]int32(nil), acc.touched...)
	p.Counts = next()
	p.Sums = make([][]float64, nmeas)
	p.Mins = make([][]float64, nmeas)
	p.Maxs = make([][]float64, nmeas)
	for i := 0; i < nmeas; i++ {
		p.Sums[i] = next()
		if c.needMM[i] {
			p.Mins[i] = next()
			p.Maxs[i] = next()
		}
	}
	for idx, g := range p.Cells {
		p.Counts[idx] = acc.counts[g]
		for i := 0; i < nmeas; i++ {
			p.Sums[i][idx] = acc.sums[i][g]
			if c.needMM[i] {
				p.Mins[i][idx] = acc.mins[i][g]
				p.Maxs[i][idx] = acc.maxs[i][g]
			}
		}
	}
	return p
}

// scanBlocks executes the plan as per-block partials instead of one folded
// accumulator. Partials come back ascending by block; empty blocks are
// dropped (every plan strategy agrees on emptiness, so dropping is
// strategy-invariant). Parallelism follows the substrate's scan parallelism;
// the output order is positional, so it never depends on scheduling.
func (c *ColumnarSubstrate) scanBlocks(plan *scanPlan, bcodes, dcodes []int32, bcard, cells int) []BlockPartial {
	if plan.rows == 0 {
		return nil
	}
	tasks := c.blockTasks(plan)
	c.obs.Count("engine.physical.morsels", int64(len(tasks)))
	parts := make([]BlockPartial, len(tasks))
	run := func(ti int) {
		acc := c.acquire(cells)
		t := tasks[ti]
		c.processMorsel(plan, t.lo, t.hi, bcodes, dcodes, bcard, acc)
		parts[ti] = c.compressAcc(t.block, acc)
		c.release(acc)
	}
	par := c.par
	if par > len(tasks) {
		par = len(tasks)
	}
	if par <= 1 {
		for ti := range tasks {
			run(ti)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ti := int(next.Add(1)) - 1
					if ti >= len(tasks) {
						return
					}
					run(ti)
				}
			}()
		}
		wg.Wait()
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p.Cells) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// ScanUnitBlocks is ScanUnit decomposed into block partials: same plan, same
// kernels, but the per-block aggregates are returned uncombined for a shard
// merger to fold. Block indices are local to this substrate's table.
func (c *ColumnarSubstrate) ScanUnitBlocks(s model.Subspace, breakdown string) ([]BlockPartial, int, error) {
	bcol := c.tab.Dimension(breakdown)
	plan := c.planFor(c.in.Intern(s))
	return c.scanBlocks(plan, bcol.Codes(), nil, 0, bcol.Cardinality()), plan.rows, nil
}

// ScanAugmentedBlocks is ScanAugmented decomposed into block partials; cell
// ids are dcode*bcard+bcode like the augmented accumulator layout.
func (c *ColumnarSubstrate) ScanAugmentedBlocks(base model.Subspace, breakdown, ext string) ([]BlockPartial, int, error) {
	bcol := c.tab.Dimension(breakdown)
	dcol := c.tab.Dimension(ext)
	bcard, dcard := bcol.Cardinality(), dcol.Cardinality()
	plan := c.planFor(c.in.Intern(base))
	return c.scanBlocks(plan, bcol.Codes(), dcol.Codes(), bcard, bcard*dcard), plan.rows, nil
}

// UnitCells returns the accumulator size of a unit scan grouped by breakdown.
func (c *ColumnarSubstrate) UnitCells(breakdown string) int {
	return c.tab.Dimension(breakdown).Cardinality()
}

// AugmentedCells returns the accumulator size of an augmented scan.
func (c *ColumnarSubstrate) AugmentedCells(breakdown, ext string) int {
	return c.tab.Dimension(breakdown).Cardinality() * c.tab.Dimension(ext).Cardinality()
}

// MorselSize returns the substrate's block width in rows — the grid sharded
// partition boundaries must align to.
func (c *ColumnarSubstrate) MorselSize() int { return c.morsel }

// PartialMerger folds BlockPartials into one accumulator with arithmetic
// identical to the morsel merge (mergeAcc): counts and sums add, min/max
// compare, first touch initializes. Callers must Fold in ascending global
// block order — that fixed order is the shard-count-invariance argument,
// exactly as morsel-index order is the scan-parallelism one. Not safe for
// concurrent use; the shard layer serializes Fold through its reorder window.
type PartialMerger struct {
	c   *ColumnarSubstrate
	acc *scanAcc
}

// NewMerger returns a merger over an accumulator of the given cell count.
// The receiving substrate defines the measure layout; every folded partial
// must come from a substrate with the same measure columns and min/max set
// (shard views of one table always do).
func (c *ColumnarSubstrate) NewMerger(cells int) *PartialMerger {
	return &PartialMerger{c: c, acc: c.acquire(cells)}
}

// Fold merges one block partial, mirroring mergeAcc cell for cell.
func (m *PartialMerger) Fold(p *BlockPartial) {
	acc := m.acc
	nmeas := len(m.c.mcols)
	for idx, g := range p.Cells {
		if acc.counts[g] == 0 {
			acc.touched = append(acc.touched, g)
			for i := 0; i < nmeas; i++ {
				if m.c.needMM[i] {
					acc.mins[i][g] = p.Mins[i][idx]
					acc.maxs[i][g] = p.Maxs[i][idx]
				}
			}
			acc.counts[g] = p.Counts[idx]
			for i := 0; i < nmeas; i++ {
				acc.sums[i][g] = p.Sums[i][idx]
			}
			continue
		}
		acc.counts[g] += p.Counts[idx]
		for i := 0; i < nmeas; i++ {
			acc.sums[i][g] += p.Sums[i][idx]
			if m.c.needMM[i] {
				if p.Mins[i][idx] < acc.mins[i][g] {
					acc.mins[i][g] = p.Mins[i][idx]
				}
				if p.Maxs[i][idx] > acc.maxs[i][g] {
					acc.maxs[i][g] = p.Maxs[i][idx]
				}
			}
		}
	}
}

// FinishUnit compresses the folded state into the unit for (s, breakdown)
// and releases the accumulator. The merger must not be reused afterwards.
func (m *PartialMerger) FinishUnit(s model.Subspace, breakdown string) *cache.Unit {
	bcol := m.c.tab.Dimension(breakdown)
	u := m.c.buildUnitSlice(m.c.in.Intern(s).key, breakdown, bcol.Domain(), m.acc, 0, bcol.Cardinality())
	m.c.release(m.acc)
	m.acc = nil
	return u
}

// FinishAugmented compresses the folded state into one unit per non-empty
// ext value, mirroring ScanAugmented's tail, and releases the accumulator.
func (m *PartialMerger) FinishAugmented(base model.Subspace, breakdown, ext string) map[string]*cache.Unit {
	units := m.c.augmentedUnits(m.c.in.Intern(base), breakdown, ext, m.acc)
	m.c.release(m.acc)
	m.acc = nil
	return units
}

// ShardStats is the canonical, fingerprint-pure outcome of resolving every
// shard's fault schedule for one scan: how many speculative copies were (or
// would be) issued, the per-shard retry total, and whether any shard failed
// both its primary and speculative copy. Because it is a pure function of
// the fingerprint, the miner's commit-order replay recomputes it instead of
// trusting worker observations — the same discipline as injected faults.
type ShardStats struct {
	SpeculativeReissues int64
	Retries             int64
	Failed              bool
}

// ShardResolver is implemented by sharded substrates (internal/shard). The
// miner type-asserts it off Engine.Substrate() to fold deterministic
// shard-level accounting into Stats.
type ShardResolver interface {
	ResolveShards(fp string) ShardStats
}
