package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"metainsight/internal/model"
)

// The row-at-a-time loader this package shipped before the chunked columnar
// one (csv.go), kept as the differential oracle: the bodies are the old
// LoadCSV and FromRecords verbatim, renamed, plus the same leading-BOM strip
// the new loader does. FuzzLoadCSV and TestLoadChunkCountInvariance hold the
// two equal on errors, schema, dictionaries, codes, measures and LoadStats.

func refLoadCSV(r io.Reader, opts LoadOptions) (*Table, error) {
	br := bufio.NewReader(r)
	if b, _ := br.Peek(len(utf8BOM)); bytes.Equal(b, utf8BOM) {
		br.Discard(len(utf8BOM)) //nolint:errcheck // the bytes were just peeked
	}
	cr := csv.NewReader(br)
	cr.TrimLeadingSpace = true
	// Column-count enforcement is deferred to FromRecords, where
	// opts.RaggedRows decides between rejecting and skip-and-count.
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row: %w", err)
		}
		records = append(records, rec)
	}
	if opts.Name == "" {
		opts.Name = "csv"
	}
	return refFromRecords(opts.Name, header, records, opts)
}

func refFromRecords(name string, header []string, records [][]string, opts LoadOptions) (*Table, error) {
	ncols := len(header)
	seen := make(map[string]bool, ncols)
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == "" {
			return nil, fmt.Errorf("dataset: empty name for column %d", i+1)
		}
		if seen[h] {
			return nil, fmt.Errorf("dataset: duplicate column name %q", h)
		}
		seen[h] = true
		header[i] = h
	}
	var stats LoadStats
	if opts.RaggedRows == RowError {
		for i, rec := range records {
			if len(rec) != ncols {
				return nil, fmt.Errorf("dataset: row %d has %d columns, header has %d", i+1, len(rec), ncols)
			}
		}
	} else {
		kept := make([][]string, 0, len(records))
		for _, rec := range records {
			if len(rec) != ncols {
				stats.RaggedSkipped++
				continue
			}
			kept = append(kept, rec)
		}
		records = kept
	}
	kinds := make([]model.FieldKind, ncols)
	keep := make([]bool, ncols)
	for c := 0; c < ncols; c++ {
		keep[c] = true
		if k, ok := opts.KindOverrides[header[c]]; ok {
			kinds[c] = k
			continue
		}
		col := refColumnValues(records, c)
		switch {
		case refAllNumeric(col):
			kinds[c] = model.KindMeasure
		case LooksTemporal(col):
			kinds[c] = model.KindTemporal
		default:
			kinds[c] = model.KindCategorical
			if opts.MaxDimensionCardinality > 0 &&
				refDistinctCount(col) > opts.MaxDimensionCardinality {
				keep[c] = false
			}
		}
	}
	var fields []model.Field
	for c := 0; c < ncols; c++ {
		if keep[c] {
			fields = append(fields, model.Field{Name: header[c], Kind: kinds[c]})
		}
	}
	b := NewBuilder(name, fields)
	dimVals := make([]string, 0, ncols)
	meaVals := make([]float64, 0, ncols)
rows:
	for ri, rec := range records {
		dimVals = dimVals[:0]
		meaVals = meaVals[:0]
		for c := 0; c < ncols; c++ {
			if !keep[c] {
				continue
			}
			if kinds[c] == model.KindMeasure {
				v, err := refParseNumber(rec[c])
				if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
					err = fmt.Errorf("non-finite value %q", strings.TrimSpace(rec[c]))
				}
				if err != nil {
					if opts.BadMeasures == RowSkip {
						stats.BadMeasureSkipped++
						continue rows
					}
					return nil, fmt.Errorf("dataset: row %d column %q: %w", ri+1, header[c], err)
				}
				meaVals = append(meaVals, v)
			} else {
				dimVals = append(dimVals, strings.TrimSpace(rec[c]))
			}
		}
		b.AddRow(dimVals, meaVals)
		stats.RowsLoaded++
	}
	tab := b.Build()
	tab.load = stats
	return tab, nil
}

func refColumnValues(records [][]string, c int) []string {
	out := make([]string, len(records))
	for i, rec := range records {
		out[i] = rec[c]
	}
	return out
}

func refDistinctCount(values []string) int {
	set := make(map[string]bool, len(values))
	for _, v := range values {
		set[strings.TrimSpace(v)] = true
	}
	return len(set)
}

func refAllNumeric(values []string) bool {
	any := false
	for _, v := range values {
		s := strings.TrimSpace(v)
		if s == "" {
			continue
		}
		if _, err := refParseNumber(s); err != nil {
			return false
		}
		any = true
	}
	return any
}

func refParseNumber(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	s = strings.ReplaceAll(s, ",", "")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number: %q", s)
	}
	return v, nil
}
