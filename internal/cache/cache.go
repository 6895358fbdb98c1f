// Package cache implements the two caches of the MetaInsight mining
// procedure (Section 4.2): the query cache, whose unit is a 2-dimensional
// aggregation grid across all measures for one (subspace, breakdown) pair
// (Figure 5), and the pattern cache, which memoizes data-pattern evaluation
// results keyed by data scope (Section 4.2.3).
//
// Both caches are Memos (memo.go): plain, unbounded once-per-key memos that
// evict nothing, count nothing and keep everything they compute. A pattern
// cache travels with the query cache whose units it evaluated, and both
// belong to an intern table (engine.Interner), one of each per MIN/MAX set,
// shared by every engine over it: a Session's requests share them. Neither
// decides a result, a statistic or a charge. The hit rates and sizes of the
// paper's Table 3 are the miner's canonical accounting (reported in the
// Stats shape below), a commit-order replay that starts empty for every run,
// not a property of the physical caches, whose traffic depends on worker
// scheduling and on earlier runs; the paper's "w/o Query Cache" and "w/o
// Pattern Cache" ablations are settings of that replay
// (miner.Config.EnableQueryCache, EnablePatternCache). A Memo coalesces
// concurrent misses on one key into one computation, so a unit is scanned,
// and a scope evaluated, at most once however many workers ask for it.
//
// A unit and a scope have two names. UnitKey and ScopeKey, made of canonical
// strings, are the external identity: trace labels.
// A Unit carries neither name; its memo key is its identity. UnitID and
// ScopeID, made of an intern table's ordinals (its handle ordinal, the
// breakdown's table index and its measure ordinal), key the memos and the
// miner's replay, which index their slots by them, so a lookup hashes
// nothing. Ordinals depend on the order a session interned things in, so
// they key memos and the replay only: they never decide an ordering, reach a
// reported hash or go on the wire (DESIGN.md §14).
package cache

import "metainsight/internal/model"

// UnitKey identifies one query-cache unit.
type UnitKey struct {
	Subspace  string // canonical subspace key (model.Subspace.Key)
	Breakdown string // breakdown dimension name
}

// ScopeKey identifies one pattern-cache entry — a data scope — by its parts,
// so the miner's hot path keys evaluations without concatenating a string.
// String renders the external identity (trace labels), byte for byte
// model.DataScope.Key.
type ScopeKey struct {
	Unit    UnitKey
	Measure string // canonical measure key (model.Measure.Key)
}

// String returns the scope's canonical key, equal to model.DataScope.Key of
// the scope it identifies.
func (k ScopeKey) String() string {
	return k.Unit.Subspace + "|" + model.EscapeKey(k.Unit.Breakdown) + "|" + k.Measure
}

// UnitID names one query-cache unit inside one intern table: the ordinal of
// its subspace's handle in the high 32 bits and the breakdown's table index
// in the next 16, the low 16 left zero for a measure (ScopeID).
type UnitID uint64

// ScopeID names one pattern-cache entry inside one intern table: its unit's
// UnitID with the measure's ordinal in the low 16 bits.
type ScopeID uint64

// MaxBreakdowns and MaxMeasures bound the breakdown index and the measure
// ordinal an id can carry.
const (
	MaxBreakdowns = 1 << 16
	MaxMeasures   = 1 << 16
)

// MakeUnitID packs a handle ordinal and a breakdown index, which must be
// below MaxBreakdowns.
func MakeUnitID(handle uint32, breakdown int) UnitID {
	return UnitID(handle)<<32 | UnitID(uint16(breakdown))<<16
}

// Handle returns the unit's handle ordinal.
func (u UnitID) Handle() uint32 { return uint32(u >> 32) }

// Breakdown returns the unit's breakdown index.
func (u UnitID) Breakdown() int { return int(uint16(u >> 16)) }

// Index returns the unit's dense index over a table of the given number of
// breakdown dimensions: its handle ordinal times breakdowns, plus its
// breakdown index. The memos and the miner's replay lay units out by it.
func (u UnitID) Index(breakdowns int) uint64 {
	return uint64(u.Handle())*uint64(breakdowns) + uint64(u.Breakdown())
}

// Scope returns the id of the unit's scope with the given measure ordinal,
// which must be below MaxMeasures.
func (u UnitID) Scope(measure uint32) ScopeID { return ScopeID(u) | ScopeID(uint16(measure)) }

// Unit returns the scope's unit.
func (s ScopeID) Unit() UnitID { return UnitID(s) &^ 0xffff }

// Measure returns the scope's measure ordinal.
func (s ScopeID) Measure() uint32 { return uint32(uint16(s)) }

// Unit is one query-cache entry: the aggregation of every measure column of
// the table, grouped by the breakdown dimension, under a fixed subspace
// filter — exactly the compound structure of the paper's Figure 5. It serves
// basic queries for any measure in M (measure extension comes for free),
// impact calculation (the impact measure is one of its columns), and the
// sibling units written by an augmented query serve subspace extension.
//
// A unit is a value whose arrays hold no pointers: the groups as breakdown
// dictionary codes, and every aggregate in one flat column-major array. A
// resident session keeps tens of thousands of units, and the collector marks
// such arrays without scanning them; the units of one scan share their
// arrays. Group keys and column names are rendered only where they leave
// (Named, ApproxBytes, the engine's series extraction).
type Unit struct {
	// Codes are the breakdown's dictionary codes of the groups with at least
	// one record, ascending (domain order).
	Codes []uint32
	// Data holds Cols.Width() columns of len(Codes) values each: the record
	// count of each group (always > 0), then per measure column its sums, then
	// the minima and maxima of the columns Cols keeps them for. Together they
	// answer SUM, COUNT, AVG, MIN and MAX without re-scanning.
	Data []float64
	// Cols names Data's columns; the units of one substrate share it.
	Cols *Columns
}

// Columns is the column layout of a substrate's units: the measure columns
// whose sums every unit holds, in table order, and those whose minima and
// maxima it holds too (the needed-aggregate set).
type Columns struct {
	names []string
	sumAt map[string]int // name → Data column of its sums
	minAt map[string]int // name → Data column of its minima; maxima follow
	width int
}

// NewColumns lays out units holding the sums of every named measure column
// and the minima and maxima of those with minMax set (aligned with names).
func NewColumns(names []string, minMax []bool) *Columns {
	c := &Columns{names: names, sumAt: make(map[string]int, len(names)), minAt: make(map[string]int)}
	c.width = 1 + len(names)
	for i, name := range names {
		c.sumAt[name] = 1 + i
	}
	for i, name := range names {
		if minMax[i] {
			c.minAt[name] = c.width
			c.width += 2
		}
	}
	return c
}

// SumColumn returns the Data column holding the sums of measure column
// name, and whether the layout keeps them.
func (c *Columns) SumColumn(name string) (int, bool) {
	i, ok := c.sumAt[name]
	return i, ok
}

// MinColumn returns the Data column holding the minima of measure column
// name, the maxima following it, and whether the layout keeps them.
func (c *Columns) MinColumn(name string) (int, bool) {
	i, ok := c.minAt[name]
	return i, ok
}

// Width is the number of Data columns of a unit: counts, sums and the
// min/max pairs.
func (c *Columns) Width() int { return c.width }

// Len returns the number of groups.
func (u Unit) Len() int { return len(u.Codes) }

// Col returns Data column i, one value per group.
func (u Unit) Col(i int) []float64 {
	n := len(u.Codes)
	return u.Data[i*n : (i+1)*n : (i+1)*n]
}

// Counts returns the record count of each group.
func (u Unit) Counts() []float64 { return u.Col(0) }

// Sums returns the sums of measure column name per group, and whether the
// unit holds them.
func (u Unit) Sums(name string) ([]float64, bool) {
	i, ok := u.Cols.SumColumn(name)
	if !ok {
		return nil, false
	}
	return u.Col(i), true
}

// Mins returns the minima of measure column name per group, and whether the
// unit holds them.
func (u Unit) Mins(name string) ([]float64, bool) {
	i, ok := u.Cols.MinColumn(name)
	if !ok {
		return nil, false
	}
	return u.Col(i), true
}

// Maxs returns the maxima of measure column name per group, and whether the
// unit holds them.
func (u Unit) Maxs(name string) ([]float64, bool) {
	i, ok := u.Cols.MinColumn(name)
	if !ok {
		return nil, false
	}
	return u.Col(i + 1), true
}

// ApproxBytes estimates the in-memory footprint of the unit as its group
// keys rendered from domain (the breakdown's dictionary) and its columns
// would take, used for the cache-size statistics of Table 3. It reads the
// key lengths, so the miner's replay calls it only for a unit its simulated
// cache stores.
func (u Unit) ApproxBytes(domain []string) int64 {
	bytes := int64(64) // the fixed per-unit overhead of the size model
	for _, code := range u.Codes {
		bytes += int64(len(domain[code])) + 16
	}
	return bytes + int64(len(u.Data))*8
}

// NamedUnit is a unit with its group keys rendered and its columns named:
// the value form of the engine's value-form scan adapters.
type NamedUnit struct {
	// GroupKeys are the breakdown values with at least one record, in
	// domain order.
	GroupKeys []string
	// Counts[i] is the number of records in group i.
	Counts []float64
	// Sums, Mins and Maxs hold, per measure column name, the aggregate for
	// each group, aligned with GroupKeys.
	Sums map[string][]float64
	Mins map[string][]float64
	Maxs map[string][]float64
}

// Named renders the unit over domain, the breakdown's dictionary.
func (u Unit) Named(domain []string) *NamedUnit {
	nu := &NamedUnit{
		GroupKeys: make([]string, len(u.Codes)),
		Counts:    u.Counts(),
		Sums:      make(map[string][]float64, len(u.Cols.names)),
		Mins:      make(map[string][]float64, len(u.Cols.minAt)),
		Maxs:      make(map[string][]float64, len(u.Cols.minAt)),
	}
	for i, code := range u.Codes {
		nu.GroupKeys[i] = domain[code]
	}
	for _, name := range u.Cols.names {
		nu.Sums[name], _ = u.Sums(name)
		if mins, ok := u.Mins(name); ok {
			nu.Mins[name] = mins
			nu.Maxs[name], _ = u.Maxs(name)
		}
	}
	return nu
}

// Stats is the cache statistics shape of Table 3. The miner's canonical
// accounting fills every field; a physical cache reports only its occupancy
// (Entries), having no counters.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int64
	Bytes   int64
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// QueryCache stores query-cache units by id, as values: the memo's entries
// hold the units themselves.
type QueryCache = Memo[UnitID, Unit]

// PatternCache memoizes values of type V keyed by data scope (MetaInsight
// memoizes pattern evaluations).
type PatternCache[V any] = Memo[ScopeID, V]
