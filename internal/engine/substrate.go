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
// (ColumnarSubstrate), and ReferenceSubstrate is its naive oracle. A scan
// cannot fail: every handle names a subspace of the engine's table (one that
// matches no rows scans nothing), and every dimension index is the table's.
//
// Contract: both methods report the number of rows physically visited, are
// safe for concurrent use, and must be deterministic for a fixed table —
// the engine's memos assume any two calls with equal arguments are
// interchangeable, and the query cache keeps whichever equal unit came first.
// Returned units list only non-empty groups in domain order, and the units of
// one ScanAugmentedAt carry the same measure columns: the engine may answer
// ScanAugmentedAt(base, b, ext) by transposing the units of
// ScanAugmentedAt(base, ext, b) (Engine.scanPair).
type Substrate interface {
	// ScanUnitAt executes one filtered group-by scan of (h's subspace,
	// breakdown dimension index bdim) across all measure columns.
	ScanUnitAt(h *Handle, bdim int) (cache.Unit, int)
	// ScanAugmentedAt executes one scan filtered by base, grouped by
	// (bdim, ext), returning one unit per dictionary code of ext: the units
	// of the sibling subspaces base ∧ ext = code, empty where one has no
	// rows.
	ScanAugmentedAt(base *Handle, bdim, ext int) ([]cache.Unit, int)
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
// configuration, so building one per request is cheap. It is pure with
// respect to the engine's caches.
type ColumnarSubstrate struct {
	tab    *dataset.Table
	mcols  []*dataset.MeasureColumn
	mvals  [][]float64    // raw values per measure, aligned with mcols
	needMM []bool         // per measure: materialize min/max?
	nmm    int            // number of true entries in needMM
	cols   *cache.Columns // the layout of the units it builds
	par    int            // scan parallelism (>= 1)
	morsel int            // morsel size in rows
	obs    *obs.Observer  // physical counters: the building engine's Config.Observer
	in     *Interner      // where the value-form adapters intern their subspaces
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
// scanning on GOMAXPROCS goroutines; its value-form adapters intern on a
// fresh intern table of its own. An Engine built without an explicit
// Substrate builds one over the engine's intern table instead.
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
	names := make([]string, len(mcols))
	for i, mc := range mcols {
		names[i] = mc.Name
		c.mvals[i] = mc.Values()
		c.needMM[i] = cfg.minMax == nil || cfg.minMax[mc.Name]
		if c.needMM[i] {
			c.nmm++
		}
	}
	c.cols = cache.NewColumns(names, c.needMM)
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

// ScanUnitAt executes one filtered group-by scan across all measure columns
// on h's plan, producing the cache unit and the number of rows visited.
func (c *ColumnarSubstrate) ScanUnitAt(h *Handle, bdim int) (cache.Unit, int) {
	bcol := c.tab.Dimensions()[bdim]
	card := bcol.Cardinality()
	plan := h.plan(c.obs)
	acc := c.scan(plan, bcol, nil, card)
	k := acc.nonEmpty(0, card)
	u := c.buildUnitSlice(acc, 0, card, make([]uint32, k), make([]float64, k*c.cols.Width()))
	c.release(acc)
	return u, plan.rows
}

// ScanAugmentedAt executes one scan grouped by (bdim, ext) on base's plan,
// splitting the accumulator (cell = ext code·|bdim| + bdim code) into one
// unit per non-empty value of ext, and reports the number of rows visited.
//
// The units share two arrays, one for their codes and one for their
// aggregates, so a scan's units cost the collector two objects.
func (c *ColumnarSubstrate) ScanAugmentedAt(base *Handle, bdim, ext int) ([]cache.Unit, int) {
	dims := c.tab.Dimensions()
	bcol, dcol := dims[bdim], dims[ext]
	bcard := bcol.Cardinality()
	plan := base.plan(c.obs)
	acc := c.scan(plan, bcol, dcol, bcard*dcol.Cardinality())
	units := make([]cache.Unit, dcol.Cardinality())
	total := acc.nonEmpty(0, len(units)*bcard)
	w := c.cols.Width()
	codes, data := make([]uint32, total), make([]float64, total*w)
	for dv := range units {
		if k := acc.nonEmpty(dv*bcard, bcard); k > 0 {
			units[dv] = c.buildUnitSlice(acc, dv*bcard, bcard, codes[:k:k], data[:k*w:k*w])
			codes, data = codes[k:], data[k*w:]
		}
	}
	c.release(acc)
	return units, plan.rows
}

// ScanUnit is ScanUnitAt on a subspace value, interned in the substrate's
// own intern table, and a breakdown name, returning the unit rendered, with
// an error that is always nil. It and ScanAugmented are the value-form
// adapters the benchmark harness's layer probes call; they go when that
// harness moves to the Session API (ROADMAP.md item 7(b)).
func (c *ColumnarSubstrate) ScanUnit(s model.Subspace, breakdown string) (*cache.NamedUnit, int, error) {
	bdim := c.tab.DimensionIndex(breakdown)
	u, rows := c.ScanUnitAt(c.in.Intern(s), bdim)
	return u.Named(c.tab.Dimensions()[bdim].Domain()), rows, nil
}

// ScanAugmented is ScanAugmentedAt on value forms, nil where a sibling has no
// rows; see ScanUnit.
func (c *ColumnarSubstrate) ScanAugmented(base model.Subspace, breakdown, ext string) ([]*cache.NamedUnit, int, error) {
	bdim := c.tab.DimensionIndex(breakdown)
	units, rows := c.ScanAugmentedAt(c.in.Intern(base), bdim, c.tab.DimensionIndex(ext))
	named := make([]*cache.NamedUnit, len(units))
	for i, u := range units {
		if u.Len() > 0 {
			named[i] = u.Named(c.tab.Dimensions()[bdim].Domain())
		}
	}
	return named, rows, nil
}
