package dataset

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"metainsight/internal/model"
)

// FuzzLoadCSV holds the chunked columnar loader equal to the sequential
// reference it replaced (csv_reference_test.go): for every row-policy
// combination, a KindOverrides arm and a MaxDimensionCardinality arm, both
// fail with the same error text or build tables equal in schema,
// dictionaries, index, codes, measure bits and LoadStats counters. The tune
// byte picks a chunk size of 1–8 bytes (so nearly every line is its own
// chunk, and quoted newlines straddle cuts) and a presumption prefix of 0–3
// rows (so late retypes happen on short inputs); the production sizes run as
// well. Neither loader may panic, and a built table must be internally
// consistent with finite measures and run ends equal to a naive
// recomputation. Run with `GOMAXPROCS=4 go test
// -fuzz=FuzzLoadCSV ./internal/dataset` to explore beyond the seed corpus
// with the chunks parsed concurrently.
func FuzzLoadCSV(f *testing.F) {
	f.Add("City,Month,Sales\nLA,Jan,100\nSF,Feb,200\n", byte(0))
	f.Add("A,B\n,\n,\n", byte(0))
	f.Add("X\n1\n2\n3\n", byte(0))
	f.Add("a,b,c\n\"q,uo\",2020-01-01,-5\n", byte(0))
	f.Add("К,Ц\nμ,λ\n", byte(0))
	f.Add("dup,dup\n1,2\n", byte(0))
	f.Add("n\n1e308\n-1e308\nNaN\n", byte(0))
	f.Add("r\n1\nx,2\nNaN\n", byte(0))
	// A quoted field whose newline straddles a cut.
	f.Add("a,b\n\"x\ny\",1\n\"p\n\nq\",2\nr,3\n", byte(2))
	// CRLF endings.
	f.Add("a,b\r\nx,1\r\ny,2\r\n", byte(3))
	// Numeric for the prefix, textual later: the retype.
	f.Add("k,v\na,1\nb,2\nc,x\nd,NaN\n", byte(1<<3|4))
	// The same with a NaN first: the retype outranks the bad measure.
	f.Add("k,v\na,1\nb,NaN\nc,x\n", byte(1<<3|2))
	// A column empty in every row is categorical, not a measure.
	f.Add("a,b\n,x\n,y\n", byte(1))
	// "xyz" occurs only in a row a bad measure drops, and still turns the
	// column from temporal to categorical.
	f.Add("m,v\nJan,1\nFeb,2\nxyz,NaN\n", byte(5))
	// A ragged row after a bad measure: the ragged row is the error.
	f.Add("k,v\na,NaN\nb\nc,1\n", byte(0))
	// Header only.
	f.Add("a,b\n", byte(0))
	// A byte-order mark before the header, and a syntax error on a late line.
	f.Add("\ufeffCity,Sales\nLA,1\nSF,\"2\n", byte(6))
	// The quote-free reader's edges: "\r\r\n" (one '\r' dropped, one left in
	// the cell), a '\r' at the end of the input, whitespace-only lines, NBSP
	// and NEL around cells, and measures at 15 and 16 digits and -0.
	f.Add("a,b\r\r\nx,1\r\r\ny,2\r", byte(3))
	f.Add("k,v\n \n\t\nx, 1\n\r\n\u00a0y\u00a0,\u00852\u0085\n", byte(4))
	f.Add("k,v\na,123456789012345\nb,1234567890123456\nc,-0\nd,-0.000\ne,+.5\n", byte(5))
	// The last kept row's code is tried before the dictionary. Its traps: a
	// value first met in a row a bad measure drops, then repeated in kept
	// rows; a run broken by a ragged row; one value with space on either side
	// in turn; a run across chunk cuts; a presumed measure retyped mid-run.
	f.Add("k,v\na,1\nb,NaN\nb,2\nb,3\n", byte(7))
	f.Add("k,v\na,1\na,2\na\na,3\nb,4\n", byte(7))
	f.Add("k,v\na,1\n a,2\na ,3\na,4\n a,5\n", byte(7))
	f.Add("k,v\nrun,1\nrun,2\nrun,3\nrun,4\nend,5\n", byte(2))
	f.Add("k,v,w\na,1,x\na,2,x\na,y,x\na,3,x\n", byte(1<<3|7))
	// The one-pass decoder matches a run value in place and reads a measure
	// up to its comma. Its traps: a run value that is a prefix of the cell
	// and the reverse (and "abc4", one column that starts with the run value
	// "ab"); a run value followed by a space before the comma; a
	// value new to the chunk in a row a later bad measure drops; a 16-digit
	// and an exponent measure inside a run of plain decimals; an extra
	// trailing comma after a run hit in the last column.
	f.Add("k,v\nabc,1\nab,2\nabc,3\n", byte(0))
	f.Add("k,v\nab,1\nabc,2\nab,3\nabc4\n", byte(0))
	f.Add("k,v\na,1\na ,2\na,3\n", byte(0))
	f.Add("k,v\na,1\nnew,NaN\na,2\n", byte(0))
	f.Add("k,v\na,1\na,2.5\na,1234567890123456\na,1e3\na,-.5\n", byte(0))
	f.Add("v,k\n1,a\n2,a\n3,a,\n", byte(0))
	f.Fuzz(func(t *testing.T, data string, tune byte) {
		chunkBytes, presume := int(tune&7)+1, int(tune>>3)&3
		var arms []LoadOptions
		for _, ragged := range []RowPolicy{RowError, RowSkip} {
			for _, bad := range []RowPolicy{RowError, RowSkip} {
				arms = append(arms, LoadOptions{Name: "fuzz", RaggedRows: ragged, BadMeasures: bad})
			}
		}
		forced := fuzzOverrides(data)
		arms = append(arms,
			LoadOptions{Name: "fuzz", KindOverrides: forced},
			LoadOptions{Name: "fuzz", KindOverrides: forced, RaggedRows: RowSkip, BadMeasures: RowSkip},
			LoadOptions{Name: "fuzz", MaxDimensionCardinality: 2, RaggedRows: RowSkip, BadMeasures: RowSkip})
		for _, opts := range arms {
			want, werr := refLoadCSV(strings.NewReader(data), opts)
			for _, size := range [][2]int{{chunkBytes, presume}, {loadChunkBytes, loadPresumeRows}} {
				got, gerr := loadCSV([]byte(data), opts, size[0], size[1])
				if werr != nil || gerr != nil {
					if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
						t.Fatalf("opts %+v chunk %d presume %d: error %v, reference %v", opts, size[0], size[1], gerr, werr)
					}
					continue
				}
				if d := TableDiff(got, want); d != "" {
					t.Fatalf("opts %+v chunk %d presume %d: differs from the reference: %s", opts, size[0], size[1], d)
				}
				checkLoaded(t, got, opts)
			}
		}
		// FromRecords takes the same loader from rows already tokenized.
		cr := newCSVReader([]byte(data))
		records, err := cr.ReadAll()
		if err != nil || len(records) == 0 {
			return
		}
		for _, opts := range arms[:4] {
			want, werr := refFromRecords("fuzz", append([]string(nil), records[0]...), records[1:], opts)
			got, gerr := FromRecords("fuzz", records[0], records[1:], opts)
			if werr != nil || gerr != nil {
				if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
					t.Fatalf("FromRecords opts %+v: error %v, reference %v", opts, gerr, werr)
				}
				continue
			}
			if d := TableDiff(got, want); d != "" {
				t.Fatalf("FromRecords opts %+v: differs from the reference: %s", opts, d)
			}
		}
	})
}

// FuzzParseNumber holds parseNumber, whose plain decimals take a fast path,
// equal to the strconv.ParseFloat of the cell with its commas removed: the
// same ok-ness and, when ok, the same bits. It also holds parseDecimal,
// which reads a quote-free line's measure up to its comma, to parseNumber of
// the cell before the first comma: where it succeeds it stops at that comma
// with the same bits, and it succeeds on s exactly when it does on the cell.
// Run with `go test -fuzz=FuzzParseNumber ./internal/dataset` to explore
// beyond the seeds.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{"", "0", "-0", "+.5", "1.", ".", "-", "+", "007.50",
		"123456789012345", "1234567890123456", ".123456789012345", "9007199254740993",
		"1,234.5", "1e5", "Inf", "NaN", "0x1p-2", "1_000", "--1", "1.2.3",
		",", "-,", ".5,x", "1e5,2", "1234567890123456,1", "7,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cell, _, _ := strings.Cut(s, ",")
		v, n, ok := parseDecimal(s)
		if _, m, cellOK := parseDecimal(cell); ok != (cellOK && m == len(cell)) {
			t.Fatalf("%q: parseDecimal ok %v, on the cell %q ok %v stopping at %d", s, ok, cell, cellOK, m)
		}
		if ok {
			want, wok := parseNumber(cell)
			if n != len(cell) || !wok || math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%q: parseDecimal %v stopping at %d, parseNumber of %q %v, %v", s, v, n, cell, want, wok)
			}
		}
		got, ok := parseNumber(s)
		if s == "" {
			if !ok || math.Float64bits(got) != 0 {
				t.Fatalf("empty cell: %v, %v; want 0, true", got, ok)
			}
			return
		}
		want, err := strconv.ParseFloat(strings.ReplaceAll(s, ",", ""), 64)
		if ok != (err == nil) {
			t.Fatalf("%q: ok %v, ParseFloat error %v", s, ok, err)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: %v (%#x), ParseFloat %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// fuzzOverrides forces two of every four columns the input's header names:
// by position, to measure, temporal or categorical.
func fuzzOverrides(data string) map[string]model.FieldKind {
	header, err := newCSVReader(bytes.TrimPrefix([]byte(data), utf8BOM)).Read()
	if err != nil {
		return nil
	}
	kinds := map[string]model.FieldKind{}
	for c, h := range header {
		switch c % 4 {
		case 0:
			kinds[strings.TrimSpace(h)] = model.KindMeasure
		case 2:
			kinds[strings.TrimSpace(h)] = []model.FieldKind{model.KindTemporal, model.KindCategorical}[c/4%2]
		}
	}
	return kinds
}

// checkLoaded asserts a loaded table is internally consistent.
func checkLoaded(t *testing.T, tab *Table, opts LoadOptions) {
	t.Helper()
	st := tab.LoadStats()
	if st.RowsLoaded != tab.Rows() {
		t.Fatalf("LoadStats.RowsLoaded=%d but table has %d rows", st.RowsLoaded, tab.Rows())
	}
	if opts.RaggedRows == RowError && st.RaggedSkipped != 0 {
		t.Fatalf("RaggedSkipped=%d under RowError", st.RaggedSkipped)
	}
	for _, col := range tab.Dimensions() {
		for r := 0; r < tab.Rows(); r++ {
			code := int(col.CodeAt(r))
			if code < 0 || code >= col.Cardinality() {
				t.Fatalf("row %d of %q decodes out of range", r, col.Name)
			}
			if col.Code(col.Value(code)) != code {
				t.Fatalf("dictionary roundtrip broken for %q", col.Name)
			}
		}
		if got, want := col.RunEnds(), NaiveRunEnds(col.codes); !slices.Equal(got, want) {
			t.Fatalf("run ends of %q: %v, naive %v", col.Name, got, want)
		}
	}
	for _, mc := range tab.MeasureColumns() {
		for r := 0; r < tab.Rows(); r++ {
			if v := mc.At(r); v != v || math.IsInf(v, 0) {
				t.Fatalf("non-finite measure survived ingestion in %q row %d", mc.Name, r)
			}
		}
	}
}

// FuzzContainerRoundTrip feeds arbitrary byte strings — decoded into a
// sorted, duplicate-free row-id set — through the compressed container
// build, and checks the invariants every representation must hold: exact
// round trip to the original ids, cardinality agreement, intersection
// against a derived subset returning exactly that subset, and runs of
// consecutive rows equal to the coalesced row list for both sets. Run
// with `go test -fuzz=FuzzContainerRoundTrip ./internal/dataset` to explore
// beyond the seed corpus.
func FuzzContainerRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 1, 2, 3, 255}, uint8(3))
	f.Add([]byte{7, 7, 7, 9}, uint8(2))
	f.Add([]byte{0xff, 0xff, 0x01, 0x80}, uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, stride uint8) {
		if stride == 0 {
			stride = 1
		}
		// Decode bytes into ascending row ids: each byte advances the cursor
		// by 1..256 scaled by stride, so small inputs still cross chunk
		// boundaries and produce runs (consecutive ids) when bytes are zero.
		rows := make([]int32, 0, len(data))
		cur := int32(-1)
		for _, d := range data {
			cur += 1 + int32(d)*int32(stride)
			if cur < 0 { // overflow guard
				break
			}
			rows = append(rows, cur)
		}
		bm := NewBitmapFromSorted(rows)
		if bm.Cardinality() != len(rows) {
			t.Fatalf("cardinality %d, want %d", bm.Cardinality(), len(rows))
		}
		got := bm.ToArray(nil)
		for i := range rows {
			if got[i] != rows[i] {
				t.Fatalf("round trip diverges at %d: got %d, want %d", i, got[i], rows[i])
			}
		}
		// Every other id forms a second set, a subset of the first, so the
		// compressed AND must return exactly it.
		want := make([]int32, 0, len(rows)/2)
		for i := 0; i < len(rows); i += 2 {
			want = append(want, rows[i])
		}
		andBm := And(bm, NewBitmapFromSorted(want))
		checkRowRuns(t, "set", bm)
		checkRowRuns(t, "subset", andBm)
		and := andBm.ToArray(nil)
		if len(and) != len(want) {
			t.Fatalf("AND cardinality %d, want %d", len(and), len(want))
		}
		for i := range want {
			if and[i] != want[i] {
				t.Fatalf("AND diverges at %d: got %d, want %d", i, and[i], want[i])
			}
		}
		st := bm.Stats()
		if st.Cardinality != int64(len(rows)) || st.Containers != st.ArrayContainers+st.RunContainers+st.BitmapContainers {
			t.Fatalf("inconsistent stats %+v", st)
		}
	})
}

// FuzzTemporalLess checks the comparator provides a strict weak ordering on
// arbitrary strings: irreflexive and asymmetric (required by sort.Slice).
func FuzzTemporalLess(f *testing.F) {
	f.Add("Jan", "Feb")
	f.Add("Q1", "Week 2")
	f.Add("2020-01-01", "2020")
	f.Add("", "w")
	f.Add("W-3", "Qx")
	f.Fuzz(func(t *testing.T, a, b string) {
		if TemporalLess(a, a) {
			t.Fatalf("TemporalLess(%q, %q) not irreflexive", a, a)
		}
		if TemporalLess(a, b) && TemporalLess(b, a) {
			t.Fatalf("TemporalLess not asymmetric for %q, %q", a, b)
		}
	})
}
