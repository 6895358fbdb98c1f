package engine

// The aggregation kernel and the morsel-parallel scan driver behind
// ColumnarSubstrate. One kernel (walkMorsel) folds every scan, filtered or
// not: a tight loop over flat slices with no closure captures that folds
// counts, sums and (for measures in the needed-aggregate set) min/max, with
// first-touch initialization so there is no O(cells) ±Inf fill.
//
// A plan holds its driving rows as runs of consecutive rows; a full-table
// plan is the one run [0, rows). The walk visits the runs that fall in the
// morsel and splits each into group-id runs, maximal stretches of rows with
// one breakdown (and ext) code. It finds where a group-id run ends by
// probing at most dataset.MinCodeRun codes: a run that is still going lies
// inside a long run of each group-by column, whose end the column keeps
// (DimColumn.RunEnds), so the walk jumps to the nearest of those ends and
// the plan run's end, through one forward cursor per column per morsel.
// Clustered tables hold their codes in runs of hundreds of rows, so a jump
// skips hundreds of comparisons; on shuffled data the probe stops at the
// first row, as a row-by-row comparison would.
//
// Each group-id run folds into its cell held in a register. A filtered
// plan's runs add their values strictly in row order, so a cell's sum is
// the same sequential fold however its rows split into runs. A full plan's
// runs of shortRun or more rows fold through four independent accumulator
// lanes instead (sumLanes, reduceLanes), which breaks the serial
// load-add-store chain through the cell that dominates an unfiltered scan
// of clustered data. The lane split changes the float addition association,
// but deterministically: a full plan's group-id runs are the maximal
// stretches of one cell within a morsel however the walk found their ends,
// so the association depends only on the morsel boundaries and the code
// sequence, never on parallelism. Filtered plans never take the lanes: that
// would move the low bits of every filtered unit. Fold oracles pin both
// associations bit for bit.
//
// All accumulator arrays of one scanAcc live in a single flat slab — counts
// first, then every sum column, then the min/max pairs — so acquire zeroes
// one contiguous prefix with a single memclr and the kernel stays in one
// allocation's cache lines.
//
// The driving row set is split into fixed-size morsels. Each morsel
// accumulates into a partial accumulator that starts from zero; partials are
// merged into the scan's result strictly in morsel-index order. The
// sequential path reuses one partial, merged and reset after every morsel.
// The parallel path (parScan) gives every goroutine one partial for all the
// morsels it takes, parks a partial that finished ahead of its turn in a
// small reorder ring, and never lets a goroutine run par or more morsels
// ahead of the merge frontier: a scan holds fewer than 2·par partials
// however its goroutines are scheduled. Because the morsel boundaries depend
// only on the morsel size and the plan's driving row count, and the merge
// order is fixed, every float addition has the same grouping at any
// parallelism — scan results are bit-identical for scan parallelism 1 or
// 16. Scans whose driving set fits one morsel skip partials and merge
// entirely.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
)

// scanAcc is one accumulator set: full-domain counts and per-measure sums
// (always), min/max arrays for needed measures only, and the first-touch
// group list. counts, sums, mins and maxs are views into one flat slab.
// Instances are pooled package-wide (see acquire/release).
type scanAcc struct {
	cells   int
	slab    []float64   // backing storage: counts | sums… | min,max…
	counts  []float64   // slab view
	sums    [][]float64 // slab views, one per measure
	mins    [][]float64 // slab views; nil per measure when min/max not needed
	maxs    [][]float64
	touched []int32 // cells first touched by this accumulator, in touch order
}

// accPool holds released accumulators of every substrate: substrates are
// built per request, so a pool of their own would start cold every time.
var accPool sync.Pool // *scanAcc

// acquire returns a zeroed accumulator sized for cells, reusing a pooled one
// when available. counts and sums are zero-filled (one memclr over the slab
// prefix); min/max arrays hold garbage outside touched cells by design —
// they are initialized at first touch and only ever read for cells with a
// non-zero count.
func (c *ColumnarSubstrate) acquire(cells int) *scanAcc {
	a, _ := accPool.Get().(*scanAcc)
	if a == nil {
		a = &scanAcc{}
	}
	nmeas := len(c.mcols)
	if cap(a.sums) < nmeas {
		a.sums = make([][]float64, nmeas)
		a.mins = make([][]float64, nmeas)
		a.maxs = make([][]float64, nmeas)
	}
	a.sums, a.mins, a.maxs = a.sums[:nmeas], a.mins[:nmeas], a.maxs[:nmeas]
	a.cells = cells
	need := cells * (1 + nmeas + 2*c.nmm)
	if cap(a.slab) < need {
		a.slab = make([]float64, need)
	}
	slab := a.slab[:need]
	clear(slab[:cells*(1+nmeas)]) // counts and sums; min/max left as garbage
	a.counts = slab[:cells:cells]
	off := cells
	for i := 0; i < nmeas; i++ {
		a.sums[i] = slab[off : off+cells : off+cells]
		off += cells
	}
	for i := 0; i < nmeas; i++ {
		if !c.needMM[i] {
			a.mins[i], a.maxs[i] = nil, nil
			continue
		}
		a.mins[i] = slab[off : off+cells : off+cells]
		off += cells
		a.maxs[i] = slab[off : off+cells : off+cells]
		off += cells
	}
	a.touched = a.touched[:0]
	return a
}

// release returns an accumulator to the pool.
func (c *ColumnarSubstrate) release(a *scanAcc) {
	if a != nil {
		accPool.Put(a)
	}
}

// resetTouched re-zeroes exactly the cells this accumulator touched, making
// it reusable for the next morsel in O(touched · measures) instead of
// O(cells · measures).
func (a *scanAcc) resetTouched() {
	for _, g := range a.touched {
		a.counts[g] = 0
		for i := range a.sums {
			a.sums[i][g] = 0
		}
	}
	a.touched = a.touched[:0]
}

// parScan is the shared state of one multi-morsel scan spread over several
// goroutines. Each goroutine claims morsels off one counter and accumulates
// every morsel it takes into one partial it keeps, handing the partial over
// only when it cannot merge yet: merging is strictly in morsel-index order,
// the order the sequential path uses, so results stay bit-identical. A
// goroutine that finishes morsel i while an earlier one is outstanding parks
// the partial in the reorder ring and carries on with a spare (one an
// in-order merge has drained, else a pooled one); whoever completes the
// in-order morsel merges it and every parked successor. No goroutine runs
// par or more morsels ahead of the merge frontier — it waits instead — so a
// scan holds fewer than 2·par partials whatever the scheduler does, where
// one accumulator per morsel in flight could pile up the whole scan behind a
// descheduled goroutine.
type parScan struct {
	c          *ColumnarSubstrate
	plan       *scanPlan
	bcol, dcol *dataset.DimColumn
	cells      int
	n, nm, par int
	global     *scanAcc

	claim atomic.Int64 // morsels handed out so far
	wg    sync.WaitGroup

	mu     sync.Mutex
	merged sync.Cond  // signalled when next advances
	next   int        // lowest morsel index not yet merged
	parked []*scanAcc // ring of par slots: finished partials of morsels next+1 … next+par-1
	spare  []*scanAcc // drained partials, reset, free for any goroutine of this scan
}

// run is one goroutine's share of the scan.
func (p *parScan) run() {
	defer p.wg.Done()
	var a *scanAcc
	for {
		mi := int(p.claim.Add(1)) - 1
		if mi >= p.nm {
			break
		}
		if a == nil {
			a = p.c.acquire(p.cells)
		}
		lo, hi := p.c.morselBounds(mi, p.n)
		p.c.walkMorsel(p.plan, lo, hi, p.bcol, p.dcol, a)
		a = p.deposit(mi, a)
	}
	p.c.release(a)
}

// deposit merges morsel mi's partial a into the global accumulator if its
// turn has come, along with any parked successors, and parks it otherwise.
// It returns the partial the caller continues with, reset; nil when it parked
// a and no drained one is spare.
func (p *parScan) deposit(mi int, a *scanAcc) *scanAcc {
	p.mu.Lock()
	defer p.mu.Unlock()
	for mi >= p.next+p.par {
		p.merged.Wait()
	}
	if mi != p.next {
		p.parked[mi%p.par] = a
		if n := len(p.spare); n > 0 {
			a, p.spare = p.spare[n-1], p.spare[:n-1]
			return a
		}
		return nil
	}
	p.c.mergeAcc(p.global, a)
	a.resetTouched()
	p.next++
	for p.next < p.nm && p.parked[p.next%p.par] != nil {
		m := p.parked[p.next%p.par]
		p.parked[p.next%p.par] = nil
		p.next++
		p.c.mergeAcc(p.global, m)
		m.resetTouched()
		p.spare = append(p.spare, m)
	}
	p.merged.Broadcast()
	return a
}

// morselBounds returns the driving positions [lo, hi) of morsel mi of a
// driving set of n rows.
func (c *ColumnarSubstrate) morselBounds(mi, n int) (lo, hi int) {
	lo = mi * c.morsel
	return lo, min(lo+c.morsel, n)
}

// scan executes the plan into one accumulator of the given cell count,
// grouped by bcol and, for augmented scans, dcol (nil for unit scans): the
// cell of row r is dcode(r)·bcard + bcode(r).
func (c *ColumnarSubstrate) scan(plan *scanPlan, bcol, dcol *dataset.DimColumn, cells int) *scanAcc {
	n := plan.rows
	global := c.acquire(cells)
	if n == 0 {
		return global
	}
	nm := (n + c.morsel - 1) / c.morsel
	c.obs.Count("engine.physical.morsels", int64(nm))
	if nm == 1 {
		c.walkMorsel(plan, 0, n, bcol, dcol, global)
		return global
	}

	par := c.par
	if par > nm {
		par = nm
	}
	if par <= 1 {
		// Sequential multi-morsel: one reusable partial, merged after each
		// morsel — the identical boundaries and merge order as the parallel
		// path, so results are bit-identical at any parallelism.
		m := c.acquire(cells)
		for mi := 0; mi < nm; mi++ {
			lo, hi := c.morselBounds(mi, n)
			c.walkMorsel(plan, lo, hi, bcol, dcol, m)
			c.mergeAcc(global, m)
			m.resetTouched()
		}
		c.release(m)
		return global
	}

	// One backing array for the ring and the spare list: a scan holds fewer
	// than 2·par partials, so the spares never outgrow the other 2·par slots.
	slots := make([]*scanAcc, 3*par)
	p := &parScan{
		c: c, plan: plan, bcol: bcol, dcol: dcol, cells: cells,
		n: n, nm: nm, par: par, global: global,
		parked: slots[:par:par], spare: slots[par:par],
	}
	p.merged.L = &p.mu
	p.wg.Add(par)
	for w := 1; w < par; w++ {
		go p.run()
	}
	p.run() // the caller is one of the par
	p.wg.Wait()
	for _, a := range p.spare {
		c.release(a)
	}
	return global
}

// walkMorsel folds driving positions [lo, hi) of plan into acc, grouped by
// bcol and, for augmented scans, dcol (nil for unit scans; the cell of a row
// is dcode·bcard + bcode). It seeks the plan run holding position lo, clips
// each run to the morsel and splits it into group-id runs: it compares at
// most MinCodeRun codes, and when the run is still going it jumps to the
// nearest of the plan run's end and the ends of the columns' long runs
// holding it. Each group-id run folds into its cell with the cell held in a
// register — one load and one store per run and measure instead of a
// load-add-store round trip per row. A filtered plan adds each run's values
// in row order, exactly as a per-row loop would, so the fold changes no bit
// of a result; two adjacent sum-only columns fold in one pass, their
// in-order chains independent, so their additions overlap instead of
// queuing behind each other. A full plan's runs of shortRun or more rows
// fold through the lanes.
func (c *ColumnarSubstrate) walkMorsel(plan *scanPlan, lo, hi int, bcol, dcol *dataset.DimColumn, acc *scanAcc) {
	bcodes, bends := bcol.Codes(), bcol.RunEnds()
	var dcodes, dends []int32
	if dcol != nil {
		dcodes, dends = dcol.Codes(), dcol.RunEnds()
	}
	bcard := int32(bcol.Cardinality())
	lanes := plan.full
	runs := plan.runs
	counts := acc.counts
	bk, dk := 0, 0 // cursors into bends and dends; rows only grow within a morsel
	k := sort.Search(len(runs)-1, func(i int) bool { return int(runs[i+1].Pos) > lo })
	for ; k < len(runs)-1 && int(runs[k].Pos) < hi; k++ {
		row, pos := int(runs[k].Row), int(runs[k].Pos)
		j, end := row+max(lo-pos, 0), row+min(hi, int(runs[k+1].Pos))-pos
		for j < end {
			// Rows j … j+MinCodeRun-1 holding one code in every group-by
			// column lie inside a kept run of each, and the first kept end
			// past j is that run's end.
			g, e := bcodes[j], j+1
			probe := min(end, j+dataset.MinCodeRun)
			if dcodes == nil {
				for e < probe && bcodes[e] == g {
					e++
				}
				if e == j+dataset.MinCodeRun && e < end {
					bk = seekEnd(bends, bk, int32(j))
					e = min(end, int(bends[bk]))
				}
			} else {
				d := dcodes[j]
				for e < probe && bcodes[e] == g && dcodes[e] == d {
					e++
				}
				if e == j+dataset.MinCodeRun && e < end {
					bk = seekEnd(bends, bk, int32(j))
					dk = seekEnd(dends, dk, int32(j))
					e = min(end, int(bends[bk]), int(dends[dk]))
				}
				g += d * bcard
			}
			if counts[g] == 0 {
				acc.touched = append(acc.touched, g)
				for i := range c.mvals {
					if c.needMM[i] {
						acc.mins[i][g] = math.Inf(1)
						acc.maxs[i][g] = math.Inf(-1)
					}
				}
			}
			counts[g] += float64(e - j)
			for i := 0; i < len(c.mvals); i++ {
				v, sums := c.mvals[i][j:e], acc.sums[i]
				if lanes && len(v) >= shortRun {
					if !c.needMM[i] {
						sums[g] += sumLanes(v)
						continue
					}
					s, mn, mx := reduceLanes(v)
					sums[g] += s
					if mn < acc.mins[i][g] {
						acc.mins[i][g] = mn
					}
					if mx > acc.maxs[i][g] {
						acc.maxs[i][g] = mx
					}
					continue
				}
				s := sums[g]
				if !c.needMM[i] && i+1 < len(c.mvals) && !c.needMM[i+1] {
					v2, sums2 := c.mvals[i+1][j:e], acc.sums[i+1]
					v2 = v2[:len(v)]
					s2 := sums2[g]
					for n, x := range v {
						s += x
						s2 += v2[n]
					}
					sums[g], sums2[g] = s, s2
					i++
					continue
				}
				if !c.needMM[i] {
					for _, x := range v {
						s += x
					}
					sums[g] = s
					continue
				}
				mins, maxs := acc.mins[i], acc.maxs[i]
				mn, mx := mins[g], maxs[g]
				for _, x := range v {
					s += x
					if x < mn {
						mn = x
					}
					if x > mx {
						mx = x
					}
				}
				sums[g], mins[g], maxs[g] = s, mn, mx
			}
			j = e
		}
	}
}

// seekEnd returns the first index i >= k of ends, an ascending list, with
// ends[i] > row; one must exist. It gallops forward from k, so a walk whose
// rows only grow pays for the distance its cursor moves, not for the length
// of the list.
func seekEnd(ends []int32, k int, row int32) int {
	if ends[k] > row {
		return k
	}
	step := 1
	for k+step < len(ends) && ends[k+step] <= row {
		k += step
		step <<= 1
	}
	hi := min(k+step, len(ends)-1) // ends[k] <= row < ends[hi]
	for hi-k > 1 {
		m := int(uint(k+hi) >> 1)
		if ends[m] <= row {
			k = m
		} else {
			hi = m
		}
	}
	return hi
}

// shortRun is the run length below which per-element in-place updates beat
// the lane-split reduction's setup cost.
const shortRun = 8

// sumLanes sums v through four independent lanes, combining them as
// (s0+s1)+(s2+s3) and folding any tail elements in order afterwards. The
// association depends only on len(v) — deterministic for a fixed plan and
// morsel size, regardless of parallelism.
func sumLanes(v []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i]
		s1 += v[i+1]
		s2 += v[i+2]
		s3 += v[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(v); i++ {
		s += v[i]
	}
	return s
}

// reduceLanes is sumLanes fused with a min/max reduction over the same pass.
// Min/max are exact under any association; NaNs never win a comparison, the
// same semantics as the in-order fold and the reference scan.
func reduceLanes(v []float64) (sum, mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		x0, x1, x2, x3 := v[i], v[i+1], v[i+2], v[i+3]
		s0 += x0
		s1 += x1
		s2 += x2
		s3 += x3
		if x0 < mn {
			mn = x0
		}
		if x0 > mx {
			mx = x0
		}
		if x1 < mn {
			mn = x1
		}
		if x1 > mx {
			mx = x1
		}
		if x2 < mn {
			mn = x2
		}
		if x2 > mx {
			mx = x2
		}
		if x3 < mn {
			mn = x3
		}
		if x3 > mx {
			mx = x3
		}
	}
	sum = (s0 + s1) + (s2 + s3)
	for ; i < len(v); i++ {
		x := v[i]
		sum += x
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return sum, mn, mx
}

// mergeAcc folds one morsel partial into the scan result, touching only the
// cells the morsel populated. Callers invoke it in morsel-index order; that
// fixed order is the parallelism-invariance argument for float sums.
func (c *ColumnarSubstrate) mergeAcc(global, m *scanAcc) {
	for _, g := range m.touched {
		if global.counts[g] == 0 {
			global.touched = append(global.touched, g)
			for i := range c.mcols {
				if c.needMM[i] {
					global.mins[i][g] = math.Inf(1)
					global.maxs[i][g] = math.Inf(-1)
				}
			}
		}
		global.counts[g] += m.counts[g]
		for i := range c.mcols {
			global.sums[i][g] += m.sums[i][g]
			if c.needMM[i] {
				if m.mins[i][g] < global.mins[i][g] {
					global.mins[i][g] = m.mins[i][g]
				}
				if m.maxs[i][g] > global.maxs[i][g] {
					global.maxs[i][g] = m.maxs[i][g]
				}
			}
		}
	}
}

// nonEmpty counts the cells of [lo, lo+n) with at least one record.
func (acc *scanAcc) nonEmpty(lo, n int) int {
	k := 0
	for _, v := range acc.counts[lo : lo+n] {
		if v > 0 {
			k++
		}
	}
	return k
}

// buildUnitSlice compresses the accumulator cells [lo, lo+n) into a unit
// holding only the non-empty groups, which codes and data (the unit's arrays,
// len(codes) = acc.nonEmpty(lo, n) and len(data) = len(codes)·Width) receive.
// Min/max columns exist only for measures in the needed-aggregate set.
func (c *ColumnarSubstrate) buildUnitSlice(acc *scanAcc, lo, n int, codes []uint32, data []float64) cache.Unit {
	u := cache.Unit{Codes: codes, Data: data, Cols: c.cols}
	k := len(codes)
	idx := 0
	for g, cnt := range acc.counts[lo : lo+n] {
		if cnt == 0 {
			continue
		}
		codes[idx] = uint32(g)
		data[idx] = cnt
		cell := lo + g
		col := 1
		for i := range c.mcols {
			data[col*k+idx] = acc.sums[i][cell]
			col++
		}
		for i := range c.mcols {
			if c.needMM[i] {
				data[col*k+idx] = acc.mins[i][cell]
				data[(col+1)*k+idx] = acc.maxs[i][cell]
				col += 2
			}
		}
		idx++
	}
	return u
}
