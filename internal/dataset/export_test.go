package dataset

import (
	"fmt"
	"math"
	"reflect"
)

// Bridges for the external test package (loader_test.go), which needs
// internal/workload and so cannot live inside this one.
var (
	LoadCSVChunked = loadCSV
	RefLoadCSV     = refLoadCSV
	CodeRunEnds    = codeRunEnds
)

// NewBitmapFromSorted builds a Bitmap from an ascending, duplicate-free list
// of row ids. It never retains rows.
func NewBitmapFromSorted(rows []int32) *Bitmap {
	bb := newBitmapBuilder()
	for _, r := range rows {
		bb.Add(r)
	}
	return bb.Finish()
}

// NaiveRunEnds recomputes a column's run ends one row at a time: the end of
// every maximal run of at least MinCodeRun equal codes, ascending.
func NaiveRunEnds(codes []int32) []int32 {
	var ends []int32
	start := 0
	for r := 1; r <= len(codes); r++ {
		if r == len(codes) || codes[r] != codes[start] {
			if r-start >= MinCodeRun {
				ends = append(ends, int32(r))
			}
			start = r
		}
	}
	return ends
}

const (
	LoadChunkBytes  = loadChunkBytes
	LoadPresumeRows = loadPresumeRows
)

// CSVChunks reports how many chunks loadCSV parses data in at chunkBytes.
func CSVChunks(data []byte, chunkBytes int) int {
	_, src, err := csvSource(data, chunkBytes)
	if err != nil {
		return 0
	}
	return max(1, len(src.pieces))
}

// TableDiff names the first difference between two tables — schema,
// dictionaries, value index, codes, measure bits, ingestion counters — or
// returns "" when there is none.
func TableDiff(a, b *Table) string {
	if a.name != b.name || a.rows != b.rows {
		return fmt.Sprintf("name/rows: %q %d vs %q %d", a.name, a.rows, b.name, b.rows)
	}
	if !(len(a.fields) == 0 && len(b.fields) == 0) && !reflect.DeepEqual(a.fields, b.fields) {
		return fmt.Sprintf("fields: %v vs %v", a.fields, b.fields)
	}
	if a.load != b.load {
		return fmt.Sprintf("load stats: %+v vs %+v", a.load, b.load)
	}
	if len(a.dims) != len(b.dims) || len(a.measures) != len(b.measures) {
		return fmt.Sprintf("columns: %d+%d vs %d+%d", len(a.dims), len(a.measures), len(b.dims), len(b.measures))
	}
	for i, x := range a.dims {
		y := b.dims[i]
		if x.Name != y.Name || x.Kind != y.Kind {
			return fmt.Sprintf("dim %d: %s %v vs %s %v", i, x.Name, x.Kind, y.Name, y.Kind)
		}
		if len(x.dict) != len(y.dict) || len(x.index) != len(y.index) || len(x.codes) != len(y.codes) {
			return fmt.Sprintf("dim %s: sizes %d/%d/%d vs %d/%d/%d", x.Name,
				len(x.dict), len(x.index), len(x.codes), len(y.dict), len(y.index), len(y.codes))
		}
		for code, v := range x.dict {
			if y.dict[code] != v || x.index[v] != code || y.index[v] != code {
				return fmt.Sprintf("dim %s: code %d is %q vs %q (index %d vs %d)", x.Name, code, v, y.dict[code], x.index[v], y.index[v])
			}
		}
		for r, code := range x.codes {
			if y.codes[r] != code {
				return fmt.Sprintf("dim %s: row %d has code %d vs %d", x.Name, r, code, y.codes[r])
			}
		}
	}
	for i, x := range a.measures {
		y := b.measures[i]
		if x.Name != y.Name || len(x.vals) != len(y.vals) {
			return fmt.Sprintf("measure %d: %s[%d] vs %s[%d]", i, x.Name, len(x.vals), y.Name, len(y.vals))
		}
		for r, v := range x.vals {
			if math.Float64bits(v) != math.Float64bits(y.vals[r]) {
				return fmt.Sprintf("measure %s: row %d is %v vs %v", x.Name, r, v, y.vals[r])
			}
		}
	}
	if !reflect.DeepEqual(a.dimIdx, b.dimIdx) || !reflect.DeepEqual(a.measIdx, b.measIdx) ||
		!reflect.DeepEqual(a.dimNames, b.dimNames) || !reflect.DeepEqual(a.temporal, b.temporal) {
		return "name lookups differ"
	}
	return ""
}
