package dataset

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"metainsight/internal/model"
)

// RowPolicy selects how ingestion treats a defective row.
type RowPolicy int

const (
	// RowError rejects the whole load with an error naming the first
	// defective row (the default: defects should be loud).
	RowError RowPolicy = iota
	// RowSkip drops the defective row, counts it in the table's LoadStats,
	// and continues — best-effort ingestion of dirty exports.
	RowSkip
)

// LoadStats counts what ingestion kept and dropped; Table.LoadStats surfaces
// it on the load result.
type LoadStats struct {
	// RowsLoaded is the number of records that entered the table.
	RowsLoaded int
	// RaggedSkipped counts rows dropped for having a column count different
	// from the header's (RaggedRows = RowSkip only).
	RaggedSkipped int
	// BadMeasureSkipped counts rows dropped for a non-finite (NaN/±Inf) or
	// unparseable measure cell (BadMeasures = RowSkip only).
	BadMeasureSkipped int
	// Postings is the compressed posting-index footprint across all dimension
	// columns: per-container-type counts, compressed bytes and the number of
	// row ids they hold (four bytes each as a sorted slice).
	// Table.LoadStats fills it in (building the indexes if needed); it is not
	// an ingestion counter.
	Postings BitmapStats
}

// LoadOptions controls CSV ingestion and type inference.
type LoadOptions struct {
	// Name is the display name of the resulting table; defaults to the file
	// base name for LoadCSVFile and "csv" for LoadCSV.
	Name string
	// KindOverrides forces specific columns to a kind, bypassing inference.
	KindOverrides map[string]model.FieldKind
	// MaxDimensionCardinality demotes high-cardinality string columns
	// (e.g. free-text IDs) from the dimension set: columns whose distinct
	// count exceeds this limit are dropped from analysis. 0 means no limit.
	MaxDimensionCardinality int
	// RaggedRows selects the treatment of rows whose column count differs
	// from the header's. The default (RowError) rejects the load.
	RaggedRows RowPolicy
	// BadMeasures selects the treatment of rows with a NaN, ±Inf or
	// unparseable cell in a measure column. The default (RowError) rejects
	// the load: non-finite values would silently poison every aggregate
	// downstream. Empty cells are not defects; they load as 0.
	BadMeasures RowPolicy
}

const (
	// loadChunkBytes is about how much CSV one parse chunk holds. A body no
	// longer than this is loaded inline, with no goroutine.
	loadChunkBytes = 2 << 20
	// loadPresumeRows is how many well-formed rows the kind presumption
	// reads before the load proper starts.
	loadPresumeRows = 4096
	// runProbe is how many kept rows of a chunk try the last kept row's code
	// on every dictionary cell before each column settles whether to go on.
	runProbe = 256
)

// utf8BOM is the byte-order mark spreadsheet exports put before the header.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// LoadCSVFile reads a CSV file with a header row and builds a Table,
// inferring each column's kind (categorical / temporal / measure).
func LoadCSVFile(path string, opts LoadOptions) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if opts.Name == "" {
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		opts.Name = strings.TrimSuffix(base, ".csv")
	}
	return loadCSV(data, opts, loadChunkBytes, loadPresumeRows)
}

// LoadCSV reads CSV data with a header row and builds a Table. Column kinds
// are inferred: a column whose every non-empty cell parses as a number is a
// measure; a column whose values look temporal (months, quarters, years,
// dates — see LooksTemporal) is a temporal dimension; everything else is a
// categorical dimension. Overrides in opts take precedence. One leading UTF-8
// byte-order mark is ignored.
func LoadCSV(r io.Reader, opts LoadOptions) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if opts.Name == "" {
		opts.Name = "csv"
	}
	return loadCSV(data, opts, loadChunkBytes, loadPresumeRows)
}

// FromRecords builds a Table from an in-memory header + string records,
// applying the same inference rules as LoadCSV. Neither slice is modified.
func FromRecords(name string, header []string, records [][]string, opts LoadOptions) (*Table, error) {
	opts.Name = name
	whole := func() ([]byte, rowReader[string], int) {
		i := 0
		return nil, func() ([]string, error) {
			if i == len(records) {
				return nil, io.EOF
			}
			i++
			return records[i-1], nil
		}, len(records)
	}
	return load(header, source{whole: whole}, opts, loadPresumeRows)
}

// loadCSV is LoadCSV over bytes already in memory, with the chunk size and the
// presumption prefix as parameters so tests can force many chunks and late
// retypes out of a small input.
func loadCSV(data []byte, opts LoadOptions, chunkBytes, presumeRows int) (*Table, error) {
	header, src, err := csvSource(bytes.TrimPrefix(data, utf8BOM), chunkBytes)
	if err != nil {
		return nil, err
	}
	return load(header, src, opts, presumeRows)
}

// A cell is one field of a record: a range of quote-free input bytes, or a
// string that encoding/csv or a FromRecords caller tokenized. One row decoder
// serves both.
type cell interface{ string | []byte }

// A rowReader yields the next record, or io.EOF after the last. The slice it
// returns may be overwritten by the following call; the cells in it are not.
type rowReader[T cell] func() ([]T, error)

// A chunk opens one run of rows: quote-free CSV for byteRows to split when
// records is nil, else a reader over records tokenized elsewhere. maxRows
// bounds how many rows there are.
type chunk func() (plain []byte, records rowReader[string], maxRows int)

// A source hands the loader its rows: whole reads all of them from the top
// of the input, pieces the same rows cut into runs that can be read
// independently. pieces is nil when the input is one chunk's worth.
type source struct {
	whole  chunk
	pieces []chunk
}

func newCSVReader(b []byte) *csv.Reader {
	cr := csv.NewReader(bytes.NewReader(b))
	cr.TrimLeadingSpace = true
	// Column-count enforcement is the loader's, where opts.RaggedRows decides
	// between rejecting and skip-and-count.
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	return cr
}

// cutLine cuts the first line off quote-free CSV b: lines end at '\n', and
// one '\r' is dropped from the end of each. It is the one line splitter of
// both quote-free readers, byteRows and parse, which skip empty lines.
func cutLine(b []byte) (line, rest []byte) {
	line = b
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		line, rest = b[:i], b[i+1:]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// splitFields appends the fields of line, split at ',', to rec.
func splitFields(rec [][]byte, line []byte) [][]byte {
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			return append(rec, line)
		}
		rec = append(rec, line[:i])
		line = line[i+1:]
	}
}

// byteRows splits quote-free CSV b into records: empty lines are skipped and
// the rest split by cutLine and splitFields. On such input that is the record
// newCSVReader returns, up to the leading space it trims, which trimSpace
// removes from every cell anyway — and quote-free input has no syntax errors.
// The cells are ranges of b and the record is reused, so a chunk allocates
// nothing per row.
func byteRows(b []byte) rowReader[[]byte] {
	var rec [][]byte
	return func() ([][]byte, error) {
		for len(b) > 0 {
			var line []byte
			if line, b = cutLine(b); len(line) > 0 {
				rec = splitFields(rec[:0], line)
				return rec, nil
			}
		}
		return nil, io.EOF
	}
}

// csvSource reads the header off data and cuts the rest into chunks. A
// stretch of body with no quote byte is split by byteRows; one with a quote
// keeps encoding/csv, whose syntax errors (line, column, text) are contract.
func csvSource(data []byte, chunkBytes int) ([]string, source, error) {
	cr := newCSVReader(data)
	header, err := cr.Read()
	if err != nil {
		return nil, source{}, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	body := data[cr.InputOffset():]
	// A well-formed row is at least one byte per column and ends a line, which
	// bounds the rows of any stretch of body without parsing it.
	open := func(b []byte, quoted func() rowReader[string]) chunk {
		return func() ([]byte, rowReader[string], int) {
			maxRows := min(bytes.Count(b, []byte{'\n'}), len(b)/len(header)) + 1
			if bytes.IndexByte(b, '"') >= 0 {
				return nil, quoted(), maxRows
			}
			return b, nil, maxRows
		}
	}
	src := source{whole: open(body, func() rowReader[string] {
		// From the top of the input, so that a syntax error carries the line
		// numbers of the file and not of a chunk.
		cr := newCSVReader(data)
		cr.Read() //nolint:errcheck // the header, read without error just above
		return cr.Read
	})}
	if cuts := chunkCuts(body, chunkBytes); len(cuts) > 2 {
		for i := range cuts[:len(cuts)-1] {
			piece := body[cuts[i]:cuts[i+1]]
			src.pieces = append(src.pieces, open(piece, func() rowReader[string] { return newCSVReader(piece).Read }))
		}
	}
	return header, src, nil
}

// chunkCuts returns offsets 0 = c0 < c1 < … = len(body) about size bytes
// apart, each inner one just past a newline that an even number of quote
// bytes precedes. In well-formed CSV that is exactly a newline outside a
// quoted field, so a record boundary; in malformed CSV it may not be, which
// is why the loader does not rely on it (see load).
func chunkCuts(body []byte, size int) []int {
	cuts := []int{0}
	pos, quotes := 0, 0 // quotes counts the quote bytes in body[:pos]
	for {
		target := cuts[len(cuts)-1] + size
		if target >= len(body) {
			break
		}
		quotes += bytes.Count(body[pos:target], []byte{'"'})
		pos = target
		for {
			i := bytes.IndexByte(body[pos:], '\n')
			if i < 0 {
				pos = len(body)
				break
			}
			quotes += bytes.Count(body[pos:pos+i], []byte{'"'})
			pos += i + 1
			if quotes%2 == 0 {
				break
			}
		}
		if pos == len(body) {
			break
		}
		cuts = append(cuts, pos)
	}
	return append(cuts, len(body))
}

// colMode is how a column's cells are stored while loading.
type colMode uint8

const (
	// asNumber parses every cell into a []float64: a column overridden to
	// measure, or one presumed a measure because no cell has said otherwise.
	asNumber colMode = iota
	// asDict dictionary-codes every cell.
	asDict
	// retyped marks, within one chunk, a presumed measure that met a cell
	// that is not a number. The chunk stops storing the column; the load is
	// re-run with it pinned asDict.
	retyped
)

// loader is one load's schema state: what is known about each column before
// and while the rows are read.
type loader struct {
	opts   LoadOptions
	names  []string  // trimmed header
	mode   []colMode // presumed from a prefix, corrected by retypes
	forced []bool    // kind fixed by opts.KindOverrides: no inference, no retype
}

// segment is one chunk's share of one column.
type segment struct {
	vals     []float64 // asNumber: one per kept row
	nonEmpty bool      // asNumber: some cell of a well-formed row was not empty

	codes []int32          // asDict: one chunk-local code per kept row
	dict  []string         // asDict: chunk-local code -> value, in order of first occurrence
	index map[string]int32 // asDict: value -> chunk-local code
	hits  int              // asDict: cells that took the last kept row's code
	// unkept holds values met only in rows a bad measure dropped. The old
	// loader inferred kinds before it dropped rows, so these values count
	// for the column's kind and cardinality but never enter its dictionary.
	unkept map[string]struct{}
}

// lastRun returns the last kept row's value and code while the column tries
// them first: in a run of one value, a cell equal to it takes the code
// without the map. Where rows do not run, trying only costs, so a column goes
// on trying past its first runProbe kept rows only if half the tries hit.
func (seg *segment) lastRun() (string, int32, bool) {
	n := len(seg.codes)
	if n == 0 || n >= runProbe && 2*seg.hits < runProbe {
		return "", 0, false
	}
	return seg.dict[seg.codes[n-1]], seg.codes[n-1], true
}

// part is what parsing one chunk produced, and the state of the parse.
type part struct {
	segs  []segment
	rows  int // rows kept
	stats LoadStats
	// The first defect of each class, worded as if the chunk were the whole
	// input — which it is whenever one of them is returned to the caller.
	syntax, ragged, bad error
	retype              []int     // presumed measures that met a non-number
	mode                []colMode // the loader's, with this chunk's retypes
	records, wellFormed int       // rows read so far, and those of the header's width
	row                 []pending // quote-free chunks: the line being decoded, one per column
}

// pending is one decoded cell of a quote-free line, held until every cell of
// the line has decoded.
type pending struct {
	val      float64 // asNumber: the value
	nonEmpty bool    // asNumber: the cell was not empty
	code     int32   // asDict: the chunk-local code, or -1 for a value new to the chunk
	value    []byte  // asDict: the trimmed cell when code is -1
}

// load builds the table in two stages. Stage one presumes each column's
// storage from a prefix of the rows; stage two parses all chunks at once into
// per-chunk column segments, verifying the presumption on every cell, and
// merges the segments in chunk order. Two things can void a stage-two run:
//
//   - A presumed measure meets a cell that is not a number: the column is
//     pinned as dictionary-coded and the run repeated (at most once per
//     column, and only on data whose prefix misleads).
//   - A chunk reports an error. Errors must read as the sequential loader's
//     did — its row and line numbers, and its precedence: CSV syntax, then
//     header names, then the first ragged row, then the first bad measure —
//     so the run is repeated as one chunk from the top of the input. That
//     also makes the chunk cuts safe without trusting them: a reader that
//     starts at a record boundary and consumes its chunk without error ends
//     at one (ending inside a quoted field is an error), so by induction
//     either every cut is a record boundary or some chunk fails.
func load(header []string, src source, opts LoadOptions, presumeRows int) (*Table, error) {
	names, err := columnNames(header)
	if err != nil {
		// The sequential loader read every row before it looked at the
		// names, so a syntax error anywhere wins; quote-free input has none.
		if _, next, _ := src.whole(); next != nil {
			for {
				if _, rerr := next(); rerr == io.EOF {
					break
				} else if rerr != nil {
					return nil, syntaxError(rerr)
				}
			}
		}
		return nil, err
	}
	l := newLoader(names, opts)
	pieces := src.pieces
	if len(pieces) > 0 {
		l.presume(pieces[0], presumeRows)
	} else {
		l.presume(src.whole, presumeRows)
	}
	for {
		var parts []*part
		if len(pieces) > 1 {
			parts = make([]*part, len(pieces))
			forEach(len(pieces), func(i int) { parts[i] = l.parse(pieces[i]) })
		} else {
			parts = []*part{l.parse(src.whole)}
		}
		var syntax, ragged, bad error
		var retype []int
		for _, p := range parts {
			syntax, ragged, bad = cmp.Or(syntax, p.syntax), cmp.Or(ragged, p.ragged), cmp.Or(bad, p.bad)
			retype = append(retype, p.retype...)
		}
		// With no syntax error in any chunk the cuts held, so a retype is
		// real, and it outranks a bad measure: the cell that is not a number
		// makes the column a dimension, and a dimension has no bad measures.
		failed := cmp.Or(syntax, ragged)
		if failed == nil && len(retype) == 0 {
			failed = bad
		}
		switch {
		case failed != nil && len(parts) > 1:
			pieces = nil // again, as one chunk from the top
		case failed != nil:
			return nil, failed
		case len(retype) > 0:
			for _, c := range retype {
				l.mode[c] = asDict
			}
		default:
			return l.merge(parts), nil
		}
	}
}

func syntaxError(err error) error { return fmt.Errorf("dataset: reading CSV row: %w", err) }

// columnNames returns the trimmed header, or the first empty or repeated name.
func columnNames(header []string) ([]string, error) {
	names := make([]string, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == "" {
			return nil, fmt.Errorf("dataset: empty name for column %d", i+1)
		}
		if seen[h] {
			return nil, fmt.Errorf("dataset: duplicate column name %q", h)
		}
		seen[h] = true
		names[i] = h
	}
	return names, nil
}

func newLoader(names []string, opts LoadOptions) *loader {
	l := &loader{opts: opts, names: names, mode: make([]colMode, len(names)), forced: make([]bool, len(names))}
	for c, name := range names {
		k, ok := opts.KindOverrides[name]
		if !ok {
			continue
		}
		l.forced[c] = true
		switch k {
		case model.KindMeasure:
		case model.KindCategorical, model.KindTemporal:
			l.mode[c] = asDict
		default:
			panic(fmt.Sprintf("dataset: unknown field kind %v", k))
		}
	}
	return l
}

// presume reads up to rows well-formed rows off the head of the input (its
// first chunk) and stores as dictionary-coded every non-overridden column
// with a cell in them that is not a number. The rest stay presumed measures — including a column with
// no non-empty cell so far — so the only correction the load proper can need
// is from number to dictionary.
func (l *loader) presume(open chunk, rows int) {
	if plain, records, _ := open(); records != nil {
		presumeRows(l, records, rows)
	} else {
		presumeRows(l, byteRows(plain), rows)
	}
}

func presumeRows[T cell](l *loader, next rowReader[T], rows int) {
	for seen := 0; seen < rows; {
		rec, err := next()
		if err != nil {
			return // the end, or a syntax error the load proper will meet again
		}
		if len(rec) != len(l.names) {
			continue
		}
		seen++
		for c, cell := range rec {
			if l.mode[c] == asNumber && !l.forced[c] {
				if _, ok := parseNumber(trimSpace(cell)); !ok {
					l.mode[c] = asDict
				}
			}
		}
	}
}

// parse reads one chunk into column segments sized so that they never grow.
// Only a syntax error stops it early: a ragged row or a bad measure under
// RowError is noted and the scan goes on, because a later cell can still
// retype a column, which outranks the bad measure. A quote-free line that
// decodeLine declines, or follows a retype, is split and goes to decodeRow.
func (l *loader) parse(open chunk) *part {
	plain, records, maxRows := open()
	p := &part{segs: make([]segment, len(l.names)), mode: append([]colMode(nil), l.mode...)}
	for c := range p.segs {
		if p.mode[c] == asNumber {
			p.segs[c].vals = make([]float64, 0, maxRows)
		} else {
			p.segs[c].codes = make([]int32, 0, maxRows)
			p.segs[c].index = make(map[string]int32)
		}
	}
	if records != nil {
		for {
			rec, err := records()
			if err == io.EOF {
				break
			}
			if err != nil {
				p.syntax = syntaxError(err)
				break
			}
			decodeRow(l, p, rec)
		}
		return p
	}
	p.row = make([]pending, len(p.segs))
	var rec [][]byte
	for len(plain) > 0 {
		var line []byte
		if line, plain = cutLine(plain); len(line) == 0 {
			continue
		}
		if len(p.retype) > 0 || !decodeLine(p, line) {
			rec = splitFields(rec[:0], line)
			decodeRow(l, p, rec)
		}
	}
	return p
}

// decodeLine decodes non-empty quote-free line in one pass, into what
// decodeRow would make of it, and appends the row to p; p must have no
// retyped column. It reports false, with p as it was (up to run-hit counts),
// for a column count other than the header's or a measure that is not a
// finite number. A run value is matched in place: its bytes, then ',' or the
// end of the line. A value new to the chunk enters the dictionary last.
func decodeLine(p *part, line []byte) bool {
	last := len(p.segs) - 1
	pos := 0
	for c := range p.segs {
		seg, cell := &p.segs[c], &p.row[c]
		if p.mode[c] == asNumber {
			start := pos
			v, n, ok := parseDecimal(line[pos:])
			cell.nonEmpty, pos = true, pos+n
			if !ok {
				pos = cellEnd(line, start)
				s := trimSpace(line[start:pos])
				if v, ok = parseNumber(s); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
				cell.nonEmpty = len(s) > 0
			}
			cell.val = v
		} else {
			hit := false
			if v, code, try := seg.lastRun(); try {
				if end := pos + len(v); end <= len(line) && (end == len(line) || line[end] == ',') && string(line[pos:end]) == v {
					seg.hits++
					cell.code, pos, hit = code, end, true
				}
			}
			if !hit {
				end := cellEnd(line, pos)
				v := line[pos:end]
				if n := len(v); n > 0 && (maySpace(v[0]) || maySpace(v[n-1])) {
					v = trimSpace(v)
				}
				code, ok := seg.index[string(v)]
				if !ok {
					code, cell.value = -1, v
				}
				cell.code, pos = code, end
			}
		}
		// pos is at the ',' that ends the cell, or at the end of the line.
		if (pos == len(line)) != (c == last) {
			return false
		}
		pos++
	}
	for c := range p.segs {
		seg, cell := &p.segs[c], &p.row[c]
		if p.mode[c] == asNumber {
			seg.vals = append(seg.vals, cell.val)
			seg.nonEmpty = seg.nonEmpty || cell.nonEmpty
			continue
		}
		if cell.code < 0 {
			s := string(cell.value)
			cell.code = int32(len(seg.dict))
			seg.index[s] = cell.code
			seg.dict = append(seg.dict, s)
		}
		seg.codes = append(seg.codes, cell.code)
	}
	p.records++
	p.wellFormed++
	p.rows++
	return true
}

// cellEnd is the index of the first ',' in line at or after pos, or len(line).
func cellEnd(line []byte, pos int) int {
	if i := bytes.IndexByte(line[pos:], ','); i >= 0 {
		return pos + i
	}
	return len(line)
}

// maySpace reports whether c could be the first or last byte of a rune
// unicode.IsSpace holds of: an ASCII space, or any byte of a multi-byte rune.
func maySpace(c byte) bool { return c >= utf8.RuneSelf || asciiSpace(c) }

// decodeRow adds one record to p: the ragged, bad-measure, retype and unkept
// rules, and their error texts, for every kind of cell.
func decodeRow[T cell](l *loader, p *part, rec []T) {
	ncols, mode, segs := len(l.names), p.mode, p.segs
	p.records++
	if len(rec) != ncols {
		if l.opts.RaggedRows == RowSkip {
			p.stats.RaggedSkipped++
		} else if p.ragged == nil {
			p.ragged = fmt.Errorf("dataset: row %d has %d columns, header has %d", p.records, len(rec), ncols)
		}
		return
	}
	p.wellFormed++
	// Measures first: whether the row is kept decides what the dimension
	// cells below may touch.
	keep := true
	for c, cell := range rec {
		if mode[c] != asNumber {
			continue
		}
		seg := &segs[c]
		s := trimSpace(cell)
		v, ok := parseNumber(s)
		seg.nonEmpty = seg.nonEmpty || len(s) > 0
		switch {
		case !ok && !l.forced[c]:
			mode[c] = retyped
			p.retype = append(p.retype, c)
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			if l.opts.BadMeasures == RowError && p.bad == nil {
				p.bad = fmt.Errorf("dataset: row %d column %q: %w", p.wellFormed, l.names[c], measureError(string(s), ok))
			}
			keep = false
		default:
			seg.vals = append(seg.vals, v)
		}
	}
	for c, cell := range rec {
		if mode[c] != asDict {
			continue
		}
		seg := &segs[c]
		v := trimSpace(cell)
		run, code, ok := seg.lastRun()
		if ok = ok && string(v) == run; ok {
			seg.hits++
		} else {
			code, ok = seg.index[string(v)]
		}
		switch {
		case keep:
			if !ok {
				// Cloned, so the dictionary does not pin the input.
				s := strings.Clone(string(v))
				code = int32(len(seg.dict))
				seg.index[s] = code
				seg.dict = append(seg.dict, s)
			}
			seg.codes = append(seg.codes, code)
		case !ok && !l.forced[c]:
			if seg.unkept == nil {
				seg.unkept = make(map[string]struct{})
			}
			if _, ok := seg.unkept[string(v)]; !ok {
				seg.unkept[strings.Clone(string(v))] = struct{}{}
			}
		}
	}
	if keep {
		p.rows++
		return
	}
	if l.opts.BadMeasures == RowSkip {
		p.stats.BadMeasureSkipped++
	}
	for c := range segs { // take back the measures stored before the bad one
		if seg := &segs[c]; len(seg.vals) > p.rows {
			seg.vals = seg.vals[:p.rows]
		}
	}
}

// trimSpace is strings.TrimSpace for either kind of cell: it drops the
// leading and then the trailing runes unicode.IsSpace holds of (NBSP and NEL
// among them), decoded as utf8 decodes them, and tells ASCII bytes apart
// without decoding. A rune is at most utf8.UTFMax bytes, so decoding one reads
// no more than that.
func trimSpace[T cell](s T) T {
	for len(s) > 0 {
		if c := s[0]; c < utf8.RuneSelf {
			if !asciiSpace(c) {
				break
			}
			s = s[1:]
		} else if r, n := utf8.DecodeRuneInString(string(s[:min(len(s), utf8.UTFMax)])); unicode.IsSpace(r) {
			s = s[n:]
		} else {
			break
		}
	}
	for len(s) > 0 {
		if c := s[len(s)-1]; c < utf8.RuneSelf {
			if !asciiSpace(c) {
				break
			}
			s = s[:len(s)-1]
		} else if r, n := utf8.DecodeLastRuneInString(string(s[max(0, len(s)-utf8.UTFMax):])); unicode.IsSpace(r) {
			s = s[:len(s)-n]
		} else {
			break
		}
	}
	return s
}

// asciiSpace reports whether c is one of the ASCII bytes unicode.IsSpace
// holds of.
func asciiSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// parseNumber reads a trimmed measure cell: thousands commas are ignored and
// an empty cell is 0.
func parseNumber[T cell](s T) (float64, bool) {
	if len(s) == 0 {
		return 0, true
	}
	if v, n, ok := parseDecimal(s); ok && n == len(s) {
		return v, true
	}
	v, err := strconv.ParseFloat(strings.ReplaceAll(string(s), ",", ""), 64)
	return v, err == nil
}

// pow10[k] is 10^k, exact in a float64 for every k up to 22; parseDecimal
// needs them up to 15.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseDecimal reads s up to its first ',', or to its end, and returns where
// it stopped. ok holds if what it read is an optional sign and then 1 to 15
// digits with at most one '.' among them or around them ("1.", ".5"). The
// digits, read as an integer, are below 2^53 and the divisor 10^frac is at
// most 10^15, so both are exact float64s, one IEEE division rounds their
// quotient correctly, and negation commutes with that rounding: the result is
// strconv.ParseFloat's, bit for bit, -0 included.
func parseDecimal[T cell](s T) (v float64, end int, ok bool) {
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		i, neg = 1, s[0] == '-'
	}
	// mant wraps past 19 digits, but more than 15 are refused anyway.
	var mant uint64
	start := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(s[i]-'0')
	}
	digits, frac := i-start, 0 // frac counts digits after the point
	if i < len(s) && s[i] == '.' {
		i++
		for start = i; i < len(s) && s[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(s[i]-'0')
		}
		frac = i - start
		digits += frac
	}
	if digits == 0 || digits > len(pow10)-1 || i < len(s) && s[i] != ',' {
		return 0, i, false
	}
	v = float64(mant) / pow10[frac]
	if neg {
		v = -v
	}
	return v, i, true
}

// measureError words the defect in trimmed measure cell s: one that did not
// parse, or one that parsed to NaN or ±Inf.
func measureError(s string, parsed bool) error {
	if !parsed {
		return fmt.Errorf("not a number: %q", strings.ReplaceAll(s, ",", ""))
	}
	return fmt.Errorf("non-finite value %q", s)
}

// merge settles every column's kind and assembles the table from the chunks'
// segments, in chunk order. The kind of a non-overridden column is a function
// of the set of its values over all well-formed rows — any non-empty and all
// numbers: measure; LooksTemporal: temporal; else categorical, dropped when
// the set outgrows MaxDimensionCardinality — so the union of the chunks'
// dictionaries (and unkept values) decides exactly what a scan of the whole
// column decided. Final codes come from sorting that union (domainOrder, a
// total order), so they do not depend on how the input was cut.
func (l *loader) merge(parts []*part) *Table {
	offs := make([]int, len(parts)) // first table row of each chunk
	var stats LoadStats
	for i, p := range parts {
		offs[i] = stats.RowsLoaded
		stats.RowsLoaded += p.rows
		stats.RaggedSkipped += p.stats.RaggedSkipped
		stats.BadMeasureSkipped += p.stats.BadMeasureSkipped
	}
	rows := stats.RowsLoaded
	t := newTable(l.opts.Name, rows)
	t.load = stats
	for c, name := range l.names {
		if l.mode[c] == asNumber {
			nonEmpty := false
			for _, p := range parts {
				nonEmpty = nonEmpty || p.segs[c].nonEmpty
			}
			if !l.forced[c] && !nonEmpty {
				// Empty in every row: categorical with the one value "".
				col := &DimColumn{Name: name, Kind: model.KindCategorical, codes: make([]int32, rows)}
				if rows > 0 {
					col.dict = []string{""}
				}
				col.index = domainOrder(col.Kind, col.dict)
				t.addDim(col)
				continue
			}
			vals := parts[0].segs[c].vals // one chunk: its segment is the column
			if len(parts) > 1 {
				vals = make([]float64, rows)
				forEach(len(parts), func(i int) { copy(vals[offs[i]:], parts[i].segs[c].vals) })
			}
			t.addMeasure(&MeasureColumn{Name: name, vals: vals})
			continue
		}
		dict, extra := distinctValues(parts, c)
		kind := l.opts.KindOverrides[name]
		if !l.forced[c] {
			kind = model.KindCategorical
			all := dict
			if len(extra) > 0 {
				all = append(extra, dict...)
			}
			if LooksTemporal(all) {
				kind = model.KindTemporal
			} else if max := l.opts.MaxDimensionCardinality; max > 0 && len(dict)+len(extra) > max {
				continue
			}
		}
		index := domainOrder(kind, dict)
		codes := parts[0].segs[c].codes // one chunk: remapped in place
		if len(parts) > 1 {
			codes = make([]int32, rows)
		}
		forEach(len(parts), func(i int) {
			seg := &parts[i].segs[c]
			remapCodes(codes[offs[i]:offs[i]+len(seg.codes)], seg.codes, seg.dict, index)
		})
		t.addDim(&DimColumn{Name: name, Kind: kind, dict: dict, index: index, codes: codes})
	}
	return t
}

// distinctValues unions column c's chunk dictionaries, in chunk order: dict
// holds the values of rows that entered the table, extra those met only in
// rows a bad measure dropped.
func distinctValues(parts []*part, c int) (dict, extra []string) {
	seen := make(map[string]struct{})
	for _, p := range parts {
		for _, v := range p.segs[c].dict {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				dict = append(dict, v)
			}
		}
	}
	for _, p := range parts {
		for v := range p.segs[c].unkept {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				extra = append(extra, v)
			}
		}
	}
	return dict, extra
}

// forEach calls fn(0) … fn(n-1) on up to GOMAXPROCS goroutines and returns
// when all have; with one of either it runs them inline.
func forEach(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
