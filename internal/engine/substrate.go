package engine

import (
	"runtime"
	"unsafe"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// Substrate is the physical scan layer behind the engine: the component that
// actually visits rows and produces query-cache units. The paper's substrate
// was Excel's query interface over IPC; ours is an in-process columnar scan
// (ColumnarSubstrate). Extracting the interface lets deployments swap in a
// remote cube or SQL backend, and lets tests substitute one that fails.
//
// Contract: both methods report the number of rows physically visited, are
// safe for concurrent use, and must be deterministic for a fixed table —
// the engine's memos assume any two calls with equal arguments are
// interchangeable, and the query cache keeps whichever equal unit came first.
// Returned units list only non-empty groups in domain order, and the units of
// one ScanAugmented carry the same measure columns:
// the engine may answer ScanAugmented(base, b, ext) by transposing the units
// of ScanAugmented(base, ext, b) (Engine.scanPair). An error is returned to
// the engine's caller as is, never retried (the miner skips and accounts the
// unit); ColumnarSubstrate never errors.
type Substrate interface {
	// ScanUnit executes one filtered group-by scan of (subspace, breakdown)
	// across all measure columns.
	ScanUnit(s model.Subspace, breakdown string) (*cache.Unit, int, error)
	// ScanAugmented executes one scan filtered by base, grouped by
	// (breakdown, ext), returning one unit per non-empty value of ext keyed
	// by that value.
	ScanAugmented(base model.Subspace, breakdown, ext string) (map[string]*cache.Unit, int, error)
}

// DefaultMorselSize is the fixed morsel width of the parallel scan pipeline,
// in rows. Morsel boundaries depend only on this constant and the plan's
// driving row count — never on the parallelism — which is what makes float
// aggregation results bit-identical for any scan parallelism (see
// DESIGN.md §8).
const DefaultMorselSize = 8192

// ColumnarSubstrate is the default Substrate: a morsel-driven, vectorized
// filtered group-by scan over the in-memory columnar table. A filtered scan
// drives the exact intersection of its filters' posting sets, the plan
// memoized on the subspace's interned handle; aggregation runs as fused
// kernels over the plan's runs of matching rows, with min/max materialized
// only for the measure columns some registered evaluator actually needs;
// accumulators come from one package-wide pool. It keeps nothing but its
// configuration, so building one per request is cheap. It is infallible and
// pure with respect to the engine's caches.
type ColumnarSubstrate struct {
	tab    *dataset.Table
	mcols  []*dataset.MeasureColumn
	mvals  [][]float64   // raw values per measure, aligned with mcols
	needMM []bool        // per measure: materialize min/max?
	nmm    int           // number of true entries in needMM
	par    int           // scan parallelism (>= 1)
	morsel int           // morsel size in rows
	obs    *obs.Observer // physical counters: the building engine's Config.Observer
	in     *Interner     // the handles this substrate's plans live on
}

// columnarConfig configures a ColumnarSubstrate. Zero values are the
// defaults.
type columnarConfig struct {
	// par is how many goroutines one scan may use: 1 is the sequential path,
	// n > 1 is n, and 0 or less is GOMAXPROCS. A scan never uses more
	// goroutines than it has morsels, so one-morsel scans run inline whatever
	// the setting. Results are bit-identical for any value: morsels have
	// fixed boundaries and their partial accumulators merge in morsel-index
	// order, so the floating-point addition grouping never depends on par.
	par int
	// morsel is the morsel width in rows (0 is DefaultMorselSize). Changing
	// it changes the float addition grouping of multi-morsel scans, so it is
	// a new deterministic universe, not a tuning knob; tests use small sizes
	// to force the multi-morsel merge path on small tables.
	morsel int
	// minMax restricts min/max materialization to the named measure columns
	// (the needed-aggregate set derived from measure and evaluator
	// registration). nil keeps the safe default — min/max for every measure;
	// a non-nil (possibly empty) set materializes min/max only for its
	// members, and MIN/MAX queries on other columns report "unit lacks
	// column".
	minMax map[string]bool
	obs    *obs.Observer
	in     *Interner
}

// NewColumnarSubstrate creates the default in-process substrate over tab,
// planning on a fresh intern table of its own and scanning on GOMAXPROCS
// goroutines. An Engine built without an explicit Substrate builds one over
// the engine's intern table instead.
func NewColumnarSubstrate(tab *dataset.Table) *ColumnarSubstrate {
	return newColumnarSubstrate(tab, columnarConfig{})
}

func newColumnarSubstrate(tab *dataset.Table, cfg columnarConfig) *ColumnarSubstrate {
	if cfg.in == nil {
		cfg.in = NewInterner(tab)
	}
	if cfg.morsel <= 0 {
		cfg.morsel = DefaultMorselSize
	}
	if cfg.par <= 0 {
		// Mining leaves cores idle exactly when one scan is all that can run
		// (the canonical head, its children unknown until it commits); that
		// scan should have them.
		cfg.par = runtime.GOMAXPROCS(0)
	}
	mcols := tab.MeasureColumns()
	c := &ColumnarSubstrate{
		tab:    tab,
		mcols:  mcols,
		mvals:  make([][]float64, len(mcols)),
		needMM: make([]bool, len(mcols)),
		par:    cfg.par,
		morsel: cfg.morsel,
		obs:    cfg.obs,
		in:     cfg.in,
	}
	for i, mc := range mcols {
		c.mvals[i] = mc.Values()
		c.needMM[i] = cfg.minMax == nil || cfg.minMax[mc.Name]
		if c.needMM[i] {
			c.nmm++
		}
	}
	return c
}

// scanPlan is the memoized physical plan for one subspace: the rows matching
// every filter, as runs of consecutive rows. rows is the exact number of rows
// the scan visits — the quantity ScanCostAt charges.
type scanPlan struct {
	full bool            // unfiltered: runs is the one run of every table row, folded through lanes
	runs dataset.RowRuns // matching rows
	rows int             // rows visited: the sentinel run's Pos
}

// bytes is what the plan holds beyond its header: the driving runs.
func (p *scanPlan) bytes() int64 {
	return int64(cap(p.runs)) * int64(unsafe.Sizeof(dataset.RowRun{}))
}

// plan returns the memoized plan of h, building it on first use and counting
// what the build holds and prunes into o. Plans are pure functions of the
// immutable table and the subspace, so memoization is invisible to results
// and costs; whichever request builds a plan, every later one reuses it.
func (h *Handle) plan(o *obs.Observer) *scanPlan {
	if p := h.planned.Load(); p != nil {
		return p
	}
	// One builder per handle: the units of one subspace are dispatched
	// together and all want its plan at once, and a plan holds a posting
	// intersection that a losing racer would compute and drop.
	h.planMu.Lock()
	defer h.planMu.Unlock()
	if p := h.planned.Load(); p != nil {
		return p
	}
	p := h.buildPlan(o)
	o.Count("engine.physical.plan_bytes", p.bytes())
	h.planned.Store(p)
	return p
}

// buildPlan builds the one physical plan for a subspace:
//
//   - no filters: the one run of every table row, folded through lanes;
//   - one filter: drive its posting set;
//   - several filters: intersect all posting sets directly on the
//     compressed bitmap containers and drive the exact matching rows.
//
// Every plan visits exactly the rows that match, so the charged row count is
// a pure function of the immutable table and the subspace. The driving set is
// emitted from the compressed set as runs of consecutive rows: no per-value
// row list is ever cached.
func (h *Handle) buildPlan(o *obs.Observer) *scanPlan {
	if h.Len() == 0 {
		n := h.in.tab.Rows()
		if n == 0 {
			return &scanPlan{full: true}
		}
		return &scanPlan{full: true, runs: dataset.RowRuns{{Row: 0, Pos: 0}, {Row: int32(n), Pos: int32(n)}}, rows: n}
	}
	if !h.valid {
		// A filter on an unknown dimension or a value absent from its
		// column: no rows match, nothing is scanned.
		return &scanPlan{}
	}
	bms := make([]*dataset.Bitmap, len(h.filters))
	best := 0
	for i, f := range h.filters {
		bms[i] = h.in.dims[f.dim].PostingsBitmap(int(f.code))
		if bms[i].Cardinality() < bms[best].Cardinality() {
			best = i
		}
	}
	if bms[best].Cardinality() == 0 {
		// A dictionary value no row holds: nothing is scanned.
		return &scanPlan{}
	}
	if len(bms) == 1 {
		return &scanPlan{runs: bms[0].RowRuns(), rows: bms[0].Cardinality()}
	}
	and := dataset.AndAll(bms...)
	o.Count("engine.physical.plan_bitmap", 1)
	o.Count("engine.physical.rows_pruned", int64(bms[best].Cardinality()-and.Cardinality()))
	return &scanPlan{runs: and.RowRuns(), rows: and.Cardinality()}
}

// ScanUnit executes one filtered group-by scan across all measure columns,
// producing the cache unit and the number of rows visited.
func (c *ColumnarSubstrate) ScanUnit(s model.Subspace, breakdown string) (*cache.Unit, int, error) {
	bcol := c.tab.Dimension(breakdown)
	card := bcol.Cardinality()
	h := c.in.Intern(s)
	plan := h.plan(c.obs)
	acc := c.scan(plan, bcol, nil, card)
	u := c.buildUnitSlice(bcol.Domain(), acc, 0, card)
	c.release(acc)
	return u, plan.rows, nil
}

// ScanAugmented executes one scan grouped by (breakdown, ext), producing one
// unit per non-empty value of ext and the number of rows visited.
func (c *ColumnarSubstrate) ScanAugmented(base model.Subspace, breakdown, ext string) (map[string]*cache.Unit, int, error) {
	bcol := c.tab.Dimension(breakdown)
	dcol := c.tab.Dimension(ext)
	bcard, dcard := bcol.Cardinality(), dcol.Cardinality()
	h := c.in.Intern(base)
	plan := h.plan(c.obs)
	acc := c.scan(plan, bcol, dcol, bcard*dcard)
	units := c.augmentedUnits(breakdown, ext, acc)
	c.release(acc)
	return units, plan.rows, nil
}

// augmentedUnits splits an augmented accumulator (cell = dcode*bcard+bcode)
// into one unit per non-empty value of ext.
func (c *ColumnarSubstrate) augmentedUnits(breakdown, ext string, acc *scanAcc) map[string]*cache.Unit {
	bcol := c.tab.Dimension(breakdown)
	dcol := c.tab.Dimension(ext)
	bcard, dcard := bcol.Cardinality(), dcol.Cardinality()
	units := make(map[string]*cache.Unit, dcard)
	bdomain := bcol.Domain()
	for dv := 0; dv < dcard; dv++ {
		u := c.buildUnitSlice(bdomain, acc, dv*bcard, bcard)
		if len(u.GroupKeys) > 0 {
			units[dcol.Value(dv)] = u
		}
	}
	return units
}
