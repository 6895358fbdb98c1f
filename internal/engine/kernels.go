package engine

// Fused aggregation kernels and the morsel-parallel scan driver behind
// ColumnarSubstrate. A morsel is aggregated by one of two kernels, each a
// tight loop over flat slices with no closure captures; both fold counts,
// sums and (for measures in the needed-aggregate set) min/max, with
// first-touch initialization so there is no O(cells) ±Inf fill.
//
// Filtered scans walk intervals (walkMorsel). A plan holds its driving rows
// as runs of consecutive matching rows; the walker visits the runs that fall
// in the morsel and splits each into group-id runs read straight off the
// breakdown (and ext) code columns. Each group-id run folds into its cell held in a register —
// clustered tables hit one cell hundreds of rows in a row — adding its
// values strictly in row order, so a cell's sum is the same sequential fold
// however its rows split into runs. On shuffled data almost every row is its
// own run.
//
// Full-table scans work run by run over the group-id vector, which for a
// unit scan is the breakdown code column itself (accumulateRuns). Dictionary
// codes of real tables are heavily clustered (sorted or generated in
// cross-product order), so one run covers hundreds of rows, the count update
// is O(1) per run, and the per-run sum folds through four independent
// accumulator lanes instead of one serial load-add-store dependency chain
// through memory. The lane split changes the float addition association, but
// deterministically: it depends only on the morsel boundaries and the code
// sequence, never on parallelism (integer-valued sums are exact under any
// association, which is what the cross-substrate differential tests compare
// byte for byte). The interval walk never uses the lanes: that would move the
// low bits of every filtered unit.
//
// All accumulator arrays of one scanAcc live in a single flat slab — counts
// first, then every sum column, then the min/max pairs — so acquire zeroes
// one contiguous prefix with a single memclr and the kernels stay in one
// allocation's cache lines. The group-id vector of a full-table augmented
// scan lives apart from it, in a morselScratch.
//
// The driving row set is split into fixed-size morsels. Each morsel
// accumulates into a partial accumulator that starts from zero; partials are
// merged into the scan's result strictly in morsel-index order. The
// sequential path reuses one partial, merged and reset after every morsel.
// The parallel path (parScan) gives every goroutine one partial and one
// scratch for all the morsels it takes, parks a partial that finished ahead
// of its turn in a small reorder ring, and never lets a goroutine run par or
// more morsels ahead of the merge frontier: a scan holds fewer than 2·par
// partials however its goroutines are scheduled. Because the morsel
// boundaries depend only on the morsel size and the plan's driving row count,
// and the merge order is fixed, every float addition has the same grouping at
// any parallelism — scan results are bit-identical for WithScanParallelism 1
// or 16. Scans whose driving set fits one morsel skip partials and merge
// entirely.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"metainsight/internal/cache"
)

// scanAcc is one accumulator set: full-domain counts and per-measure sums
// (always), min/max arrays for needed measures only, and the first-touch
// group list. counts, sums, mins and maxs are views into one flat slab.
// Instances are pooled per substrate (see acquire/release).
type scanAcc struct {
	cells   int
	slab    []float64   // backing storage: counts | sums… | min,max…
	counts  []float64   // slab view
	sums    [][]float64 // slab views, one per measure
	mins    [][]float64 // slab views; nil per measure when min/max not needed
	maxs    [][]float64
	touched []int32 // cells first touched by this accumulator, in touch order
}

// morselScratch is the group-id vector of a full-table augmented scan, one
// morsel's worth (32 KiB at the default morsel size). It belongs to whoever
// processes morsels — one per sequential scan, one per goroutine of a
// parallel one, kept across all the morsels it takes — not to an
// accumulator: the scan's result and a partial waiting to be merged need
// none. Pooled per substrate beside the accumulators.
type morselScratch struct {
	gids []int32 // group id per row
}

func (c *ColumnarSubstrate) acquireScratch() *morselScratch {
	if v := c.scratch.Get(); v != nil {
		return v.(*morselScratch)
	}
	return &morselScratch{}
}

func (c *ColumnarSubstrate) releaseScratch(sc *morselScratch) {
	c.scratch.Put(sc)
}

// acquire returns a zeroed accumulator sized for cells, reusing a pooled one
// when available. counts and sums are zero-filled (one memclr over the slab
// prefix); min/max arrays hold garbage outside touched cells by design —
// they are initialized at first touch and only ever read for cells with a
// non-zero count.
func (c *ColumnarSubstrate) acquire(cells int) *scanAcc {
	var a *scanAcc
	if v := c.pool.Get(); v != nil {
		a = v.(*scanAcc)
	}
	nmeas := len(c.mcols)
	if a == nil {
		a = &scanAcc{
			sums: make([][]float64, nmeas),
			mins: make([][]float64, nmeas),
			maxs: make([][]float64, nmeas),
		}
	}
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
		c.pool.Put(a)
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

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// parScan is the shared state of one multi-morsel scan spread over several
// goroutines. Each goroutine claims morsels off one counter, holds one
// scratch for the whole scan, and accumulates every morsel it takes into one
// partial it keeps, handing the partial over only when it cannot merge yet: merging is strictly in morsel-index order, the order the
// sequential path uses, so results stay bit-identical. A goroutine that
// finishes morsel i while an earlier one is outstanding parks the partial in
// the reorder ring and carries on with a spare (one an in-order merge has
// drained, else a pooled one); whoever completes the in-order morsel merges
// it and every parked successor. No goroutine runs par or more morsels ahead
// of the merge frontier — it waits instead — so a scan holds fewer than 2·par
// partials whatever the scheduler does, where one accumulator per morsel in
// flight could pile up the whole scan behind a descheduled goroutine.
type parScan struct {
	c              *ColumnarSubstrate
	plan           *scanPlan
	bcodes, dcodes []int32
	bcard, cells   int
	n, nm, par     int
	global         *scanAcc

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
	sc := p.c.acquireScratch()
	defer p.c.releaseScratch(sc)
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
		p.c.processMorsel(p.plan, lo, hi, p.bcodes, p.dcodes, p.bcard, a, sc)
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

// scan executes the plan into one accumulator of the given cell count.
// dcodes is nil for unit scans; for augmented scans the cell of row r is
// dcodes[r]*bcard + bcodes[r].
func (c *ColumnarSubstrate) scan(plan *scanPlan, bcodes, dcodes []int32, bcard, cells int) *scanAcc {
	n := plan.rows
	global := c.acquire(cells)
	if n == 0 {
		return global
	}
	nm := (n + c.morsel - 1) / c.morsel
	c.obs.Count("engine.physical.morsels", int64(nm))
	if nm == 1 {
		sc := c.acquireScratch()
		c.processMorsel(plan, 0, n, bcodes, dcodes, bcard, global, sc)
		c.releaseScratch(sc)
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
		m, sc := c.acquire(cells), c.acquireScratch()
		for mi := 0; mi < nm; mi++ {
			lo, hi := c.morselBounds(mi, n)
			c.processMorsel(plan, lo, hi, bcodes, dcodes, bcard, m, sc)
			c.mergeAcc(global, m)
			m.resetTouched()
		}
		c.release(m)
		c.releaseScratch(sc)
		return global
	}

	// One backing array for the ring and the spare list: a scan holds fewer
	// than 2·par partials, so the spares never outgrow the other 2·par slots.
	slots := make([]*scanAcc, 3*par)
	p := &parScan{
		c: c, plan: plan, bcodes: bcodes, dcodes: dcodes, bcard: bcard, cells: cells,
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

// processMorsel aggregates driving positions [lo, hi) into acc: full-table
// morsels through the lane kernel, filtered ones through the interval walk.
func (c *ColumnarSubstrate) processMorsel(plan *scanPlan, lo, hi int, bcodes, dcodes []int32, bcard int, acc *scanAcc, sc *morselScratch) {
	if !plan.full {
		c.walkMorsel(plan, lo, hi, bcodes, dcodes, int32(bcard), acc)
		return
	}
	if dcodes == nil {
		// Unit scan over contiguous rows: the group-id vector is the
		// breakdown code column itself — no copy, no gather.
		c.accumulateRuns(acc, bcodes[lo:hi], lo)
		return
	}
	n := hi - lo
	sc.gids = growInt32(sc.gids, n)
	gids := sc.gids[:n]
	bc := bcodes[lo:hi]
	dc := dcodes[lo:hi]
	for i := range bc {
		gids[i] = dc[i]*int32(bcard) + bc[i]
	}
	c.accumulateRuns(acc, gids, lo)
}

// walkMorsel is the interval walk: it folds driving positions [lo, hi) of a
// filtered plan into acc. It seeks the plan run holding position lo and clips
// each run to the morsel, then splits it into group-id runs: maximal
// stretches of rows with one breakdown (and ext) code, read straight off the
// code columns (dcodes is nil for unit scans; the cell of an augmented row is
// dcode·bcard + bcode). Each group-id run folds into its cell with the cell
// held in a register — one load and one store per run and measure instead of
// a load-add-store round trip per row — adding its values in row order,
// exactly as a per-row loop would, so the fold changes no bit of a result.
// Two adjacent sum-only columns fold in one pass: their in-order chains are
// independent, so their additions overlap instead of queuing behind each
// other.
func (c *ColumnarSubstrate) walkMorsel(plan *scanPlan, lo, hi int, bcodes, dcodes []int32, bcard int32, acc *scanAcc) {
	runs := plan.runs
	counts := acc.counts
	k := sort.Search(len(runs)-1, func(i int) bool { return int(runs[i+1].Pos) > lo })
	for ; k < len(runs)-1 && int(runs[k].Pos) < hi; k++ {
		row, pos := int(runs[k].Row), int(runs[k].Pos)
		j, end := row+max(lo-pos, 0), row+min(hi, int(runs[k+1].Pos))-pos
		for j < end {
			g, e := bcodes[j], j+1
			if dcodes == nil {
				for e < end && bcodes[e] == g {
					e++
				}
			} else {
				d := dcodes[j]
				for e < end && bcodes[e] == g && dcodes[e] == d {
					e++
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

// accumulateRuns is the contiguous-scan kernel: it walks the group-id vector
// run by run. Counts advance O(1) per run; each run's sum folds through four
// independent accumulator lanes (breaking the serial load-add-store chain
// through the accumulator cell that dominates clustered data), and min/max
// reduce in the same pass for measures that need them. Short runs fall back
// to plain in-order updates. rowBase maps gid index 0 to its table row.
func (c *ColumnarSubstrate) accumulateRuns(acc *scanAcc, gids []int32, rowBase int) {
	n := len(gids)
	counts := acc.counts
	j := 0
	for j < n {
		g := gids[j]
		k := j + 1
		for k < n && gids[k] == g {
			k++
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
		counts[g] += float64(k - j)
		for i, vals := range c.mvals {
			v := vals[rowBase+j : rowBase+k]
			sums := acc.sums[i]
			if !c.needMM[i] {
				if len(v) < shortRun {
					for _, x := range v {
						sums[g] += x
					}
				} else {
					sums[g] += sumLanes(v)
				}
				continue
			}
			mins, maxs := acc.mins[i], acc.maxs[i]
			if len(v) < shortRun {
				for _, x := range v {
					sums[g] += x
					if x < mins[g] {
						mins[g] = x
					}
					if x > maxs[g] {
						maxs[g] = x
					}
				}
				continue
			}
			s, mn, mx := reduceLanes(v)
			sums[g] += s
			if mn < mins[g] {
				mins[g] = mn
			}
			if mx > maxs[g] {
				maxs[g] = mx
			}
		}
		j = k
	}
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
// same semantics as the per-row kernels and the reference scan.
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

// buildUnitSlice compresses the accumulator cells [lo, lo+n) into a unit
// holding only the non-empty groups. All per-group float columns of the unit
// share one slab allocation, and min/max columns exist only for measures in
// the needed-aggregate set — the "leaner buildUnit" that removes the
// per-unit map churn the augmented path used to pay per ext value.
func (c *ColumnarSubstrate) buildUnitSlice(subspaceKey, breakdown string, domain []string, acc *scanAcc, lo, n int) *cache.Unit {
	counts := acc.counts[lo : lo+n]
	nonEmpty := 0
	for _, v := range counts {
		if v > 0 {
			nonEmpty++
		}
	}
	nmeas := len(c.mcols)
	slab := make([]float64, nonEmpty*(1+nmeas+2*c.nmm))
	next := func() []float64 {
		s := slab[:nonEmpty:nonEmpty]
		slab = slab[nonEmpty:]
		return s
	}
	u := &cache.Unit{
		Key:       cache.UnitKey{Subspace: subspaceKey, Breakdown: breakdown},
		GroupKeys: make([]string, nonEmpty),
		Counts:    next(),
		Sums:      make(map[string][]float64, nmeas),
		Mins:      make(map[string][]float64, c.nmm),
		Maxs:      make(map[string][]float64, c.nmm),
	}
	sumCols := make([][]float64, nmeas)
	minCols := make([][]float64, nmeas)
	maxCols := make([][]float64, nmeas)
	for i := range c.mcols {
		sumCols[i] = next()
		if c.needMM[i] {
			minCols[i] = next()
			maxCols[i] = next()
		}
	}
	idx := 0
	for g, cnt := range counts {
		if cnt == 0 {
			continue
		}
		u.GroupKeys[idx] = domain[g]
		u.Counts[idx] = cnt
		cell := lo + g
		for i := range c.mcols {
			sumCols[i][idx] = acc.sums[i][cell]
			if c.needMM[i] {
				minCols[i][idx] = acc.mins[i][cell]
				maxCols[i][idx] = acc.maxs[i][cell]
			}
		}
		idx++
	}
	for i, mc := range c.mcols {
		u.Sums[mc.Name] = sumCols[i]
		if c.needMM[i] {
			u.Mins[mc.Name] = minCols[i]
			u.Maxs[mc.Name] = maxCols[i]
		}
	}
	return u
}
