package dataset

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"metainsight/internal/model"
)

func TestRaggedRowPolicy(t *testing.T) {
	in := "City,Sales\nLA,100\nSF\nNY,50,extra\nLA,25\n"

	if _, err := LoadCSV(strings.NewReader(in), LoadOptions{Name: "t"}); err == nil {
		t.Fatal("default policy accepted ragged rows")
	}

	tab, err := LoadCSV(strings.NewReader(in), LoadOptions{Name: "t", RaggedRows: RowSkip})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 {
		t.Errorf("rows = %d, want 2", tab.Rows())
	}
	st := tab.LoadStats()
	if st.RaggedSkipped != 2 || st.RowsLoaded != 2 {
		t.Errorf("stats = %+v, want RaggedSkipped=2 RowsLoaded=2", st)
	}
}

func TestBadMeasurePolicy(t *testing.T) {
	in := "City,Sales\nLA,100\nSF,NaN\nNY,+Inf\nLA,25\n"

	if _, err := LoadCSV(strings.NewReader(in), LoadOptions{Name: "t"}); err == nil {
		t.Fatal("default policy accepted a NaN measure")
	}

	tab, err := LoadCSV(strings.NewReader(in), LoadOptions{Name: "t", BadMeasures: RowSkip})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 {
		t.Errorf("rows = %d, want 2", tab.Rows())
	}
	st := tab.LoadStats()
	if st.BadMeasureSkipped != 2 || st.RowsLoaded != 2 {
		t.Errorf("stats = %+v, want BadMeasureSkipped=2 RowsLoaded=2", st)
	}
	col := tab.MeasureColumn("Sales")
	if col.At(0) != 100 || col.At(1) != 25 {
		t.Errorf("kept values = %v %v, want 100 25", col.At(0), col.At(1))
	}
}

func TestEmptyMeasureCellIsNotDefect(t *testing.T) {
	in := "City,Sales\nLA,100\nSF,\n"
	tab, err := LoadCSV(strings.NewReader(in), LoadOptions{Name: "t", BadMeasures: RowSkip})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 || tab.LoadStats().BadMeasureSkipped != 0 {
		t.Errorf("rows=%d stats=%+v, want empty cell loaded as 0", tab.Rows(), tab.LoadStats())
	}
}

func TestUnparseableMeasureUnderOverrideSkips(t *testing.T) {
	// Forcing a mixed column to measure makes "n/a" cells defects; RowSkip
	// must drop those rows rather than fail the load.
	in := "K,V\na,1\nb,n/a\nc,3\n"
	tab, err := LoadCSV(strings.NewReader(in), LoadOptions{
		Name:          "t",
		KindOverrides: map[string]model.FieldKind{"V": model.KindMeasure},
		BadMeasures:   RowSkip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 || tab.LoadStats().BadMeasureSkipped != 1 {
		t.Errorf("rows=%d stats=%+v, want 2 rows and 1 bad-measure skip", tab.Rows(), tab.LoadStats())
	}
}

func TestFromRecordsLeavesHeaderAlone(t *testing.T) {
	header := []string{" City ", "Sales\t"}
	tab, err := FromRecords("t", header, [][]string{{"LA", "1"}}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if header[0] != " City " || header[1] != "Sales\t" {
		t.Errorf("caller's header rewritten to %q", header)
	}
	if tab.Dimension("City") == nil || tab.MeasureColumn("Sales") == nil {
		t.Errorf("fields = %v, want trimmed names City and Sales", tab.Fields())
	}
}

func TestLoadCSVStripsBOM(t *testing.T) {
	in := "\ufeffCity,Sales\n1,100\n2,50\n"
	tab, err := LoadCSV(strings.NewReader(in), LoadOptions{
		KindOverrides: map[string]model.FieldKind{"City": model.KindCategorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Dimension("City") == nil {
		t.Errorf("fields = %q: the byte-order mark stayed on the first name, so the override missed", tab.Fields())
	}
}

// sameAsReference loads in with both loaders and fails, reporting false,
// unless they agree on the error text or on the table.
func sameAsReference(t *testing.T, in string, opts LoadOptions, chunkBytes, presumeRows int) bool {
	t.Helper()
	want, werr := refLoadCSV(strings.NewReader(in), opts)
	got, gerr := loadCSV([]byte(in), opts, chunkBytes, presumeRows)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("chunk %d: error %v, reference %v", chunkBytes, gerr, werr)
			return false
		}
		return true
	}
	if d := TableDiff(got, want); d != "" {
		t.Errorf("chunk %d: differs from the reference: %s", chunkBytes, d)
		return false
	}
	return true
}

// A column that is numeric for the whole presumption prefix and textual
// later is re-typed, at the production prefix length, in one chunk or many —
// and the cell that re-types it outranks the NaN before it, which would
// otherwise be a bad measure.
func TestLoadRetypeAfterPrefix(t *testing.T) {
	var b strings.Builder
	b.WriteString("K,A,B,V\n")
	for i := 0; i < loadPresumeRows+50; i++ {
		fmt.Fprintf(&b, "k%d,%d,%d,%d\n", i%7, i, 2000+i%3, i)
	}
	b.WriteString("k1,NaN,2001,1\nk2,n/a,2002,2\nk3,7,Q3,3\n")
	in := b.String()
	for _, chunkBytes := range []int{loadChunkBytes, 4096} {
		sameAsReference(t, in, LoadOptions{Name: "t"}, chunkBytes, loadPresumeRows)
	}
	tab, err := LoadCSV(strings.NewReader(in), LoadOptions{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Dimension("A") == nil || tab.Dimension("B") == nil || tab.MeasureColumn("V") == nil {
		t.Errorf("fields = %v, want A and B re-typed to dimensions and V a measure", tab.Fields())
	}
}

// Errors read as the sequential loader's whatever the chunking: its row and
// line numbers, and its precedence — syntax, header names, first ragged row,
// first bad measure.
func TestLoadErrorsReadSequentially(t *testing.T) {
	skip := LoadOptions{Name: "t", RaggedRows: RowSkip, BadMeasures: RowSkip}
	for _, tc := range []struct {
		name, in string
		opts     LoadOptions
		want     string
	}{
		{"empty input", "", LoadOptions{}, "dataset: reading CSV header: EOF"},
		{"late syntax error", "a,b\nx,1\n\ny,2\nz,\"3\nw,4\n", skip, `dataset: reading CSV row: record on line 5; parse error on line 6, column 5: extraneous or missing " in quoted-field`},
		{"bare quote", "a,b\nx,1\ny\"y,2\n", skip, `dataset: reading CSV row: parse error on line 3, column 2: bare " in non-quoted-field`},
		{"syntax outranks names", "a,a\nx,1\ny\"y,2\n", skip, `dataset: reading CSV row: parse error on line 3, column 2: bare " in non-quoted-field`},
		{"names outrank ragged", "a,a\nx\n", LoadOptions{}, `dataset: duplicate column name "a"`},
		{"ragged outranks earlier bad measure", "k,v\na,NaN\nb,1\nc\n", LoadOptions{}, "dataset: row 3 has 1 columns, header has 2"},
		{"bad measure row counts kept rows", "k,v\na,1\nb\nc,Inf\n", LoadOptions{RaggedRows: RowSkip}, `dataset: row 2 column "v": non-finite value "Inf"`},
		{"unparseable forced measure", "k,v\na,1\nb,\"1,0x\"\n", LoadOptions{KindOverrides: map[string]model.FieldKind{"v": model.KindMeasure}}, `dataset: row 2 column "v": not a number: "10x"`},
	} {
		for chunkBytes := 1; chunkBytes <= 9; chunkBytes++ {
			_, err := loadCSV([]byte(tc.in), tc.opts, chunkBytes, 1)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s at chunk %d: error %v, want %s", tc.name, chunkBytes, err, tc.want)
			}
			sameAsReference(t, tc.in, tc.opts, chunkBytes, 1)
		}
	}
}

func TestLoadCSVReaderError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("a,b\nx,1\n"), iotest.ErrReader(boom))
	if _, err := LoadCSV(r, LoadOptions{}); !errors.Is(err, boom) {
		t.Errorf("error %v, want it to wrap the reader's", err)
	}
}

// Quote-free input is decoded from its bytes, with the last kept row's code
// tried before the dictionary, and the table that comes out is the reference
// loader's — or the error is, to the byte — at every line-ending and
// whitespace edge and on random quote-free bodies, at chunk sizes of 1–8 bytes
// and at the production size, with ragged and bad-measure rows both rejected
// and skipped.
func TestQuoteFreeLoadMatchesReference(t *testing.T) {
	arms := []LoadOptions{{Name: "t"}, {Name: "t", RaggedRows: RowSkip, BadMeasures: RowSkip}}
	same := func(body string) {
		t.Helper()
		for _, opts := range arms {
			for _, chunkBytes := range []int{1, 2, 3, 4, 5, 6, 7, 8, loadChunkBytes} {
				if !sameAsReference(t, "k,v\n"+body, opts, chunkBytes, 1) {
					t.Fatalf("body %q, opts %+v", body, opts)
				}
			}
		}
	}
	for _, in := range []string{
		"", "\n", "\r", "\r\n", "\r\r", ",", ",,\n",
		"a,b\r\nc,d\r\n",                 // CRLF
		"a,b\r\r\nc\r\r\n\r\r\n",         // "\r\r\n": one '\r' dropped, one kept
		"a\rb,c\nd,e\r f\n",              // a lone '\r' inside a field
		"a,b\nc,d\r",                     // a trailing '\r' with no final newline
		"a,b\nc,d\r\r",                   // two of them: one is dropped
		"a\n\n\nb\n \n\t\t\n\r\n \r\nc",  // blank and whitespace-only lines
		"a,b,\nc,\n,\n",                  // trailing commas
		"\u00a0x\u00a0,\u0085y\u0085\n",  // NBSP and NEL around a cell
		"\u00a0\n\u0085,\u00a0\u0085\n ", // lines of nothing else
		"a,b\nc,",                        // an empty last field
		"\xc2,\xff\xc2\xa0\n \xa0x\n",    // invalid UTF-8 beside NBSP
		"a,1\nb,NaN\nb,2\nb,3\n",         // a value first met in a dropped row
		"a,1\na,2\na\na,3\nb,4\n",        // a run broken by a ragged row
		"a,1\n a,2\na ,3\n a,4\n",        // one value, spaced differently
		// The one-pass decoder's edges: a run value that is a prefix of the
		// cell and the reverse, in either column (and "abc4", one column
		// that starts with the run value "ab"); a run value followed by a
		// space before the comma; a value new to the chunk in a row a later
		// bad measure drops; a 16-digit and an exponent measure inside a run
		// of plain decimals; an extra trailing comma after a run hit in the
		// last column.
		"abc,1\nab,2\nabc,3\n",
		"ab,1\nabc,2\nab,3\nabc4\n",
		"1,abc\n2,ab\n3,abc\n4,abc\n",
		"a,1\na ,2\na,3\n",
		"a,1\nnew,NaN\na,2\n",
		"a,1\na,2.5\na,1234567890123456\na,1e3\na,-.5\n",
		"1,a\n2,a\n3,a,\n",
	} {
		same(in)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	pieces := []string{"a", "7", ",", "\n", "\r", " ", "\t", "\u00a0", "\u0085", "\xc2", "\v", "\u3000", "b", "NaN", "ab", "abc", "1.5", "-", "."}
	for range 20000 {
		var b strings.Builder
		for n := rng.IntN(24); n > 0; n-- {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		same(b.String())
	}
}

// A plain decimal of at most 15 digits takes parseDecimal, and the value it
// returns is strconv.ParseFloat's bit for bit; every other string falls
// through. The random arm draws a million decimals of 1–17 digits with
// random signs, points and leading zeros.
func TestParseDecimalExact(t *testing.T) {
	check := func(s string, fast bool) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 64)
		got, n, ok := parseDecimal(s)
		if ok = ok && n == len(s); ok != fast {
			t.Fatalf("%q: fast path %v, want %v", s, ok, fast)
		}
		if ok && (err != nil || math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("%q: %v (%#x), ParseFloat %v (%#x, %v)", s, got, math.Float64bits(got), want, math.Float64bits(want), err)
		}
	}
	for s, fast := range map[string]bool{
		"-0": true, "+.5": true, "1.": true, ".": false, "-": false, "+": false,
		"-0.000": true, "000000000000123": true, "0000000000000123": false,
		"123456789012345": true, "1234567890123456": false,
		".123456789012345": true, ".1234567890123456": false,
		"0.1": true, "-999999999999999": true, "1,5": false, "1e5": false, "1.2.3": false,
		"Inf": false, "NaN": false, "0x10": false, " 1": false, "1_0": false,
	} {
		check(s, fast)
	}
	if v, _, _ := parseDecimal("-0"); !math.Signbit(v) {
		t.Error("-0 lost its sign")
	}
	rng := rand.New(rand.NewPCG(28, 5))
	var b []byte
	for range 1_000_000 {
		b = b[:0]
		switch rng.IntN(3) {
		case 1:
			b = append(b, '-')
		case 2:
			b = append(b, '+')
		}
		digits := 1 + rng.IntN(17)
		point := rng.IntN(digits + 2) // digits+1: no point
		lead := rng.IntN(digits + 1)  // how many leading zeros
		for d := 0; d < digits; d++ {
			if d == point {
				b = append(b, '.')
			}
			if d < lead {
				b = append(b, '0')
			} else {
				b = append(b, byte('0'+rng.IntN(10)))
			}
		}
		if point == digits {
			b = append(b, '.')
		}
		check(string(b), digits <= 15)
	}
}

// Cuts fall just past newlines outside quoted fields, about size bytes apart.
func TestChunkCutsSkipQuotedNewlines(t *testing.T) {
	body := "\"a\nb\",1\n\"c\"\"\nd\",2\nx,3\n"
	for size, want := range map[int][]int{
		1:   {0, 8, 18, 22},
		9:   {0, 18, 22},
		19:  {0, 22},
		100: {0, 22},
	} {
		if got := chunkCuts([]byte(body), size); !reflect.DeepEqual(got, want) {
			t.Errorf("size %d: cuts %v, want %v", size, got, want)
		}
	}
}
