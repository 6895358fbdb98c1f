package dataset_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/workload"
)

// quickGen is the benchmark's quick-scale generated table (≈104 k rows).
func quickGen() *dataset.Table {
	return workload.Generate(workload.GenSpec{Name: "gen1m", Seed: 7, Cards: []int{12, 6, 4}, Periods: 12, Measures: 2, RowsPerCell: 30})
}

func csvOf(t testing.TB, tab *dataset.Table) []byte {
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

// TestBuildPostingsMatchesPerColumn builds every column's posting sets at
// once, from 8 callers racing on a fresh table, and requires each bitmap to
// equal, container by container, what a serial per-column build of an
// identical table makes, at GOMAXPROCS 1 and 4, and each column's run ends
// to equal the serial build's in one exact-size allocation; a call after the
// build must allocate nothing. The tables are the four Figure-6 ones and the
// quick generated one. CI runs it under -race -cpu 1,4.
func TestBuildPostingsMatchesPerColumn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		refs := append(workload.FourLargeDatasets(), quickGen())
		for i, tab := range append(workload.FourLargeDatasets(), quickGen()) {
			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tab.BuildPostings()
				}()
			}
			wg.Wait()
			for d, col := range tab.Dimensions() {
				ref := refs[i].Dimensions()[d]
				for code := range col.Cardinality() {
					if !reflect.DeepEqual(col.PostingsBitmap(code), ref.PostingsBitmap(code)) {
						t.Errorf("%s GOMAXPROCS %d: %s = %q differs from the per-column build", tab.Name(), procs, col.Name, col.Value(code))
					}
				}
				if got := col.RunEnds(); !slices.Equal(got, ref.RunEnds()) || cap(got) != len(got) {
					t.Errorf("%s GOMAXPROCS %d: %s run ends (%d, capacity %d) differ from the per-column build's %d",
						tab.Name(), procs, col.Name, len(got), cap(got), len(ref.RunEnds()))
				}
			}
			if n := testing.AllocsPerRun(10, func() {
				tab.BuildPostings()
				for _, col := range tab.Dimensions() {
					col.RunEnds()
				}
			}); n != 0 {
				t.Errorf("%s: BuildPostings after the build allocates %.0f times", tab.Name(), n)
			}
		}
	}
}

// shuffledRows rebuilds tab with its rows in a seeded random order.
func shuffledRows(tab *dataset.Table) *dataset.Table {
	b := dataset.NewBuilder(tab.Name()+" shuffled", tab.Fields())
	dims := make([]string, len(tab.Dimensions()))
	vals := make([]float64, len(tab.MeasureColumns()))
	for _, r := range rand.New(rand.NewPCG(3, 4)).Perm(tab.Rows()) {
		for i, d := range tab.Dimensions() {
			dims[i] = d.Value(int(d.CodeAt(r)))
		}
		for i, mc := range tab.MeasureColumns() {
			vals[i] = mc.At(r)
		}
		b.AddRow(dims, vals)
	}
	return b.Build()
}

// TestRunEndsMatchNaive holds every column's run ends equal to a naive
// recomputation, built in one exact-size allocation (none for a column
// without a long run), on the four Figure-6 tables, the quick generated one
// and a row-shuffled copy of it, and on hand-built edges: 0 and 1 rows, a
// single-value column, runs of exactly MinCodeRun-1 and MinCodeRun rows, and
// a run ending at the last row. CI runs it under -race -cpu 1,4.
func TestRunEndsMatchNaive(t *testing.T) {
	const m = dataset.MinCodeRun
	fields := []model.Field{{Name: "edge", Kind: model.KindCategorical}, {Name: "one", Kind: model.KindCategorical}, {Name: "v", Kind: model.KindMeasure}}
	// edges holds runs of the given lengths in its edge column, each of a
	// value other than its neighbours', beside a single-value column.
	edges := func(runs ...int) *dataset.Table {
		b := dataset.NewBuilder(fmt.Sprint("edges", runs), fields)
		for i, n := range runs {
			for range n {
				b.AddRow([]string{strconv.Itoa(i % 2), "x"}, []float64{1})
			}
		}
		return b.Build()
	}
	gen := quickGen()
	last := edges(m-1, m, 1, m+1)
	tabs := append(workload.FourLargeDatasets(), gen, shuffledRows(gen), edges(), edges(1), last)
	for _, tab := range tabs {
		for _, col := range tab.Dimensions() {
			got, want := col.RunEnds(), dataset.NaiveRunEnds(col.Codes())
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s keeps %d run ends, the naive recomputation %d", tab.Name(), col.Name, len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Errorf("%s: %s keeps %d run ends in a capacity of %d", tab.Name(), col.Name, len(got), cap(got))
			}
			allocs := testing.AllocsPerRun(3, func() { dataset.CodeRunEnds(col.Codes()) })
			if wantAllocs := float64(min(1, len(want))); allocs != wantAllocs {
				t.Errorf("%s: building %s's run ends allocates %.0f times, want %.0f", tab.Name(), col.Name, allocs, wantAllocs)
			}
		}
	}
	if got, want := last.Dimension("edge").RunEnds(), []int32{2*m - 1, 3*m + 1}; !slices.Equal(got, want) {
		t.Errorf("edge column: run ends %v, want %v", got, want)
	}
	if got, want := last.Dimension("one").RunEnds(), []int32{3*m + 1}; !slices.Equal(got, want) {
		t.Errorf("single-value column: run ends %v, want %v", got, want)
	}
}

// TestLoadAllocsGuard holds the cold path's allocation bill: loading the
// quick generated CSV from a file may cost at most 0.05 allocations and 115
// bytes per row, so one allocation per record fails it. The row-at-a-time
// loader this one replaced measured ≈3.0 and ≈543 (a [][]string of every
// record, a copy of every column for inference, one string per cell); with
// encoding/csv under the chunks it read ≈1.04 and ≈153 (one string per
// record), and with quote-free chunks copied into one string each ≈0.00 and
// ≈165. Decoded straight from the bytes it reads ≈0.00 and ≈105: the file,
// the column segments and the columns. Counts, not timings, so it runs in
// every plain `go test`.
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
	if allocs > 0.05 || bytesPerRow > 115 {
		t.Errorf("load allocates %.2f times and %.0f B per row, want at most 0.05 and 115", allocs, bytesPerRow)
	}
}

// BenchmarkLoadCSV loads the quick generated CSV from memory at the
// production chunk size: as written, where rows come in runs of one value per
// dimension (clustered), and with its rows shuffled, where a cell seldom
// repeats the one above it.
func BenchmarkLoadCSV(b *testing.B) {
	clustered := csvOf(b, quickGen())
	header, body, _ := bytes.Cut(clustered, []byte{'\n'})
	rows := bytes.SplitAfter(body, []byte{'\n'})
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	shuffled := bytes.Join(append([][]byte{header, []byte{'\n'}}, rows...), nil)
	for _, arm := range []struct {
		layout string
		data   []byte
	}{{"clustered", clustered}, {"shuffled", shuffled}} {
		b.Run("layout="+arm.layout, func(b *testing.B) {
			b.SetBytes(int64(len(arm.data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := dataset.LoadCSVChunked(arm.data, dataset.LoadOptions{}, dataset.LoadChunkBytes, dataset.LoadPresumeRows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
