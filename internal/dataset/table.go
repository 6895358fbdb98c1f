// Package dataset implements the columnar storage substrate MetaInsight mines
// over. A Table holds dictionary-encoded dimension columns and float64
// measure columns; it is immutable once built, which lets the query engine
// scan it from many goroutines without locking.
package dataset

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"metainsight/internal/model"
)

// DimColumn is a dictionary-encoded dimension column. Values are stored as
// indices into the dictionary; the dictionary is ordered (temporally for
// temporal dimensions, lexically for categorical ones) so group-by results
// come out in a stable, meaningful order.
type DimColumn struct {
	Name  string
	Kind  model.FieldKind
	dict  []string       // code -> value, in domain order
	index map[string]int // value -> code
	codes []int32        // row -> code

	bmOnce  sync.Once
	bmPost  []*Bitmap // code -> lazily built compressed posting set (see index.go)
	runEnds []int32   // exclusive ends of the long code runs, built with bmPost

	zoneMu sync.Mutex
	zones  map[int]*ZoneMap // block size -> lazily built zone map (see zones.go)
}

// Cardinality returns the number of distinct values in the column's domain.
func (c *DimColumn) Cardinality() int { return len(c.dict) }

// Domain returns the column's distinct values in domain order. The returned
// slice is shared; callers must not modify it.
func (c *DimColumn) Domain() []string { return c.dict }

// Code returns the dictionary code for value, or -1 if the value does not
// occur in the column.
func (c *DimColumn) Code(value string) int {
	if i, ok := c.index[value]; ok {
		return i
	}
	return -1
}

// Value returns the dictionary value for code.
func (c *DimColumn) Value(code int) string { return c.dict[code] }

// CodeAt returns the dictionary code of the value at row i.
func (c *DimColumn) CodeAt(i int) int32 { return c.codes[i] }

// Codes returns the column's per-row dictionary codes. The returned slice is
// shared with the column; callers must not modify it. Vectorized scan kernels
// use it to read codes in tight loops without a per-row method call.
func (c *DimColumn) Codes() []int32 { return c.codes }

// MeasureColumn is a plain float64 measure column.
type MeasureColumn struct {
	Name string
	vals []float64
}

// At returns the value at row i.
func (c *MeasureColumn) At(i int) float64 { return c.vals[i] }

// Values returns the column's per-row values. The returned slice is shared
// with the column; callers must not modify it. Vectorized scan kernels use it
// to read values in tight loops without a per-row method call.
func (c *MeasureColumn) Values() []float64 { return c.vals }

// Table is an immutable columnar multi-dimensional dataset D = ⟨Dim, M⟩.
type Table struct {
	name     string
	rows     int
	fields   []model.Field
	dims     []*DimColumn
	dimNames []string // dims' names, computed once at build
	temporal []string // temporal dims' names, computed once at build
	measures []*MeasureColumn
	dimIdx   map[string]int
	measIdx  map[string]int
	load     LoadStats
	postings sync.Once // BuildPostings
}

// LoadStats reports what ingestion kept and dropped for tables built by
// FromRecords/LoadCSV (the ingestion counters are zero for tables assembled
// directly via Builder), plus the compressed posting-index footprint, which
// is built on first request and so is populated for every table.
func (t *Table) LoadStats() LoadStats {
	ls := t.load
	ls.Postings = t.PostingsStats()
	return ls
}

// PostingsStats builds the bitmap posting indexes of every dimension column
// (an idempotent one-off O(dims × rows) pass) and returns their aggregate
// container composition and byte footprint.
func (t *Table) PostingsStats() BitmapStats {
	t.BuildPostings()
	var s BitmapStats
	for _, d := range t.dims {
		s.Add(d.BitmapPostingsStats())
	}
	return s
}

// Name returns the dataset's display name.
func (t *Table) Name() string { return t.name }

// Rows returns the number of records.
func (t *Table) Rows() int { return t.rows }

// Cols returns the number of columns (dimensions plus measures).
func (t *Table) Cols() int { return len(t.dims) + len(t.measures) }

// Cells returns rows × cols, the dataset-scale metric used throughout the
// paper's evaluation (Section 5.1.1, Table 3).
func (t *Table) Cells() int { return t.rows * t.Cols() }

// Fields returns the schema in declaration order.
func (t *Table) Fields() []model.Field { return t.fields }

// Dimensions returns the dimension columns in declaration order.
func (t *Table) Dimensions() []*DimColumn { return t.dims }

// DimensionNames returns the names of all dimensions in declaration order.
// The slice is computed once when the table is built and shared by every
// call; callers must not modify it.
func (t *Table) DimensionNames() []string { return t.dimNames }

// TemporalDimensions returns the names of all temporal dimensions, in
// declaration order. Like DimensionNames, the slice is computed once and
// shared; callers must not modify it.
func (t *Table) TemporalDimensions() []string { return t.temporal }

// Dimension returns the dimension column named name, or nil if absent.
func (t *Table) Dimension(name string) *DimColumn {
	if i, ok := t.dimIdx[name]; ok {
		return t.dims[i]
	}
	return nil
}

// DimensionIndex returns the declaration index of dimension name, or -1.
func (t *Table) DimensionIndex(name string) int {
	if i, ok := t.dimIdx[name]; ok {
		return i
	}
	return -1
}

// MeasureColumns returns the measure columns in declaration order.
func (t *Table) MeasureColumns() []*MeasureColumn { return t.measures }

// MeasureColumn returns the measure column named name, or nil if absent.
func (t *Table) MeasureColumn(name string) *MeasureColumn {
	if i, ok := t.measIdx[name]; ok {
		return t.measures[i]
	}
	return nil
}

// DefaultMeasures returns a reasonable measure set M for the table:
// SUM over every measure column, plus COUNT(*). This mirrors the measure
// sets used by the paper's evaluation, where COUNT(*) always participates as
// the impact measure.
func (t *Table) DefaultMeasures() []model.Measure {
	ms := make([]model.Measure, 0, len(t.measures)+1)
	for _, c := range t.measures {
		ms = append(ms, model.Sum(c.Name))
	}
	ms = append(ms, model.Count("*"))
	return ms
}

// Validate checks that a data scope refers to existing columns of the table.
func (t *Table) Validate(ds model.DataScope) error {
	if !ds.Valid() {
		return fmt.Errorf("dataset: invalid data scope %s", ds)
	}
	if t.Dimension(ds.Breakdown) == nil {
		return fmt.Errorf("dataset: unknown breakdown dimension %q", ds.Breakdown)
	}
	for _, f := range ds.Subspace {
		col := t.Dimension(f.Dim)
		if col == nil {
			return fmt.Errorf("dataset: unknown filter dimension %q", f.Dim)
		}
		if col.Code(f.Value) < 0 {
			return fmt.Errorf("dataset: value %q not in domain of %q", f.Value, f.Dim)
		}
	}
	return t.ValidateMeasure(ds.Measure)
}

// ErrUnknownMeasure is wrapped by the error ValidateMeasure returns for a
// measure the table cannot answer: a caller's mistake, not a failure.
var ErrUnknownMeasure = errors.New("unknown measure column")

// ValidateMeasure checks that the table can answer m: COUNT(*), or an
// aggregate — COUNT included — of one of its measure columns.
func (t *Table) ValidateMeasure(m model.Measure) error {
	if m.Agg == model.AggCount && m.Column == "*" {
		return nil
	}
	if m.Column == "" || t.MeasureColumn(m.Column) == nil {
		return fmt.Errorf("dataset: %w %q", ErrUnknownMeasure, m.Column)
	}
	return nil
}

// Builder assembles a Table row by row. It is not safe for concurrent use.
type Builder struct {
	name   string
	fields []model.Field
	dimPos []int // field index -> dims slice position (or -1)
	meaPos []int
	dims   []*dimBuilder
	meas   []*measureBuilder
	rows   int
}

type dimBuilder struct {
	name  string
	kind  model.FieldKind
	index map[string]int
	dict  []string
	codes []int32
}

type measureBuilder struct {
	name string
	vals []float64
}

// NewBuilder creates a builder for a table with the given schema. Field order
// is preserved. It panics on duplicate or empty field names so schema bugs
// surface at construction time.
func NewBuilder(name string, fields []model.Field) *Builder {
	b := &Builder{name: name, fields: append([]model.Field(nil), fields...)}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			panic("dataset: empty field name")
		}
		if seen[f.Name] {
			panic(fmt.Sprintf("dataset: duplicate field name %q", f.Name))
		}
		seen[f.Name] = true
		switch f.Kind {
		case model.KindCategorical, model.KindTemporal:
			b.dimPos = append(b.dimPos, len(b.dims))
			b.meaPos = append(b.meaPos, -1)
			b.dims = append(b.dims, &dimBuilder{name: f.Name, kind: f.Kind, index: map[string]int{}})
		case model.KindMeasure:
			b.dimPos = append(b.dimPos, -1)
			b.meaPos = append(b.meaPos, len(b.meas))
			b.meas = append(b.meas, &measureBuilder{name: f.Name})
		default:
			panic(fmt.Sprintf("dataset: unknown field kind %v", f.Kind))
		}
	}
	return b
}

// AddRow appends one record. dimValues must align with the dimension fields
// in schema order and measureValues with the measure fields in schema order.
func (b *Builder) AddRow(dimValues []string, measureValues []float64) {
	if len(dimValues) != len(b.dims) || len(measureValues) != len(b.meas) {
		panic(fmt.Sprintf("dataset: AddRow arity mismatch: got %d dims %d measures, want %d and %d",
			len(dimValues), len(measureValues), len(b.dims), len(b.meas)))
	}
	for i, v := range dimValues {
		d := b.dims[i]
		code, ok := d.index[v]
		if !ok {
			code = len(d.dict)
			d.index[v] = code
			d.dict = append(d.dict, v)
		}
		d.codes = append(d.codes, int32(code))
	}
	for i, v := range measureValues {
		b.meas[i].vals = append(b.meas[i].vals, v)
	}
	b.rows++
}

// Build finalizes the table. Dimension dictionaries are re-sorted into domain
// order (see domainOrder) and row codes are remapped accordingly.
func (b *Builder) Build() *Table {
	t := newTable(b.name, b.rows)
	for i, f := range b.fields {
		if p := b.meaPos[i]; p >= 0 {
			t.addMeasure(&MeasureColumn{Name: f.Name, vals: b.meas[p].vals})
			continue
		}
		d := b.dims[b.dimPos[i]]
		sorted := append([]string(nil), d.dict...)
		index := domainOrder(d.kind, sorted)
		codes := make([]int32, len(d.codes))
		remapCodes(codes, d.codes, d.dict, index)
		t.addDim(&DimColumn{Name: d.name, Kind: d.kind, dict: sorted, index: index, codes: codes})
	}
	return t
}

func newTable(name string, rows int) *Table {
	return &Table{name: name, rows: rows, dimIdx: map[string]int{}, measIdx: map[string]int{}}
}

// addDim appends a dimension column as the table's next field.
func (t *Table) addDim(col *DimColumn) {
	t.fields = append(t.fields, model.Field{Name: col.Name, Kind: col.Kind})
	t.dimIdx[col.Name] = len(t.dims)
	t.dims = append(t.dims, col)
	t.dimNames = append(t.dimNames, col.Name)
	if col.Kind == model.KindTemporal {
		t.temporal = append(t.temporal, col.Name)
	}
}

// addMeasure appends a measure column as the table's next field.
func (t *Table) addMeasure(col *MeasureColumn) {
	t.fields = append(t.fields, model.Field{Name: col.Name, Kind: model.KindMeasure})
	t.measIdx[col.Name] = len(t.measures)
	t.measures = append(t.measures, col)
}

// domainOrder sorts a dimension's distinct values into domain order, in
// place — temporal order for temporal dimensions (see TemporalLess), lexical
// order otherwise — and returns the value -> code index of the result. Both
// orders are total on distinct strings, so the codes depend on the set of
// values alone, not on the order they were met in.
func domainOrder(kind model.FieldKind, values []string) map[string]int {
	if kind == model.KindTemporal {
		sort.SliceStable(values, func(i, j int) bool { return TemporalLess(values[i], values[j]) })
	} else {
		sort.Strings(values)
	}
	index := make(map[string]int, len(values))
	for code, v := range values {
		index[v] = code
	}
	return index
}

// remapCodes translates src, whose codes index the dictionary local, into
// the codes index assigns the same values, and writes them to dst. dst and
// src may be the same slice.
func remapCodes(dst, src []int32, local []string, index map[string]int) {
	remap := make([]int32, len(local))
	for code, v := range local {
		remap[code] = int32(index[v])
	}
	for i, code := range src {
		dst[i] = remap[code]
	}
}
