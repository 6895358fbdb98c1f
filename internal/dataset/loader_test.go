package dataset_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/workload"
)

// quickGen is the benchmark's quick-scale generated table (≈104 k rows).
func quickGen() *dataset.Table {
	return workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 7, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30})
}

func csvOf(t *testing.T, tab *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := workload.WriteCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadChunkCountInvariance loads the four Figure-6 tables and the quick
// generated one through a CSV round trip at forced chunk counts 1, 2 and 7
// and with GOMAXPROCS 1 and 4, and requires every load to equal the
// sequential reference loader's table: same dictionaries, codes, measure
// bits and counters, however the input was cut and however many goroutines
// parsed it. CI runs it under -race -cpu 1,4.
func TestLoadChunkCountInvariance(t *testing.T) {
	tabs := append(workload.FourLargeDatasets(), quickGen())
	for _, tab := range tabs {
		data := csvOf(t, tab)
		opts := dataset.LoadOptions{Name: tab.Name()}
		want, err := dataset.RefLoadCSV(bytes.NewReader(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunks := range []int{1, 2, 7} {
			chunkBytes := len(data)/chunks + 1
			if got := dataset.CSVChunks(data, chunkBytes); got != chunks {
				t.Fatalf("%s: cut into %d chunks, want %d", tab.Name(), got, chunks)
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := dataset.LoadCSVChunked(data, opts, chunkBytes, dataset.LoadPresumeRows)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if d := dataset.TableDiff(got, want); d != "" {
					t.Errorf("%s at %d chunks, GOMAXPROCS %d: differs from the reference: %s", tab.Name(), chunks, procs, d)
				}
			}
		}
	}
}

// TestLoadAllocsGuard holds the cold path's allocation bill: loading the
// quick generated CSV from a file may cost at most 0.05 allocations and 220
// bytes per row, so one allocation per record fails it. The row-at-a-time
// loader this one replaced measured ≈3.0 and ≈543 (a [][]string of every
// record, a copy of every column for inference, one string per cell); with
// encoding/csv under the chunks it read ≈1.04 and ≈153 (one string per
// record). The quote-free reader reads ≈0.00 and ≈165: the file, one string
// per chunk, the column segments and the columns. Counts, not timings, so it
// runs in every plain `go test`.
func TestLoadAllocsGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.csv")
	if err := os.WriteFile(path, csvOf(t, quickGen()), 0o644); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tab, err := dataset.LoadCSVFile(path, dataset.LoadOptions{})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	rows := float64(tab.Rows())
	allocs := float64(m1.Mallocs-m0.Mallocs) / rows
	bytesPerRow := float64(m1.TotalAlloc-m0.TotalAlloc) / rows
	t.Logf("%d rows: %.2f allocations and %.0f B per row", tab.Rows(), allocs, bytesPerRow)
	if allocs > 0.05 || bytesPerRow > 220 {
		t.Errorf("load allocates %.2f times and %.0f B per row, want at most 0.05 and 220", allocs, bytesPerRow)
	}
}
