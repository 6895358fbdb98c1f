package dataset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metainsight/internal/model"
)

// naiveIntersect is the oracle: map-based intersection, re-sorted.
func naiveIntersect(lists ...[]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	counts := map[int32]int{}
	for _, l := range lists {
		for _, v := range l {
			counts[v]++
		}
	}
	var out []int32
	for v, c := range counts {
		if c == len(lists) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// genRows builds adversarial row-id distributions for the container property
// suite. Each shape stresses a different representation: dense chunks become
// bitmap containers, sparse ones arrays, clustered ones runs, and the
// boundary shapes pin chunk-edge arithmetic.
func genRows(shape string, rng *rand.Rand) []int32 {
	switch shape {
	case "empty":
		return nil
	case "single":
		return []int32{int32(rng.Intn(3 * chunkSize))}
	case "sparse":
		// ~500 ids spread over 4 chunks: array containers.
		seen := map[int32]bool{}
		for len(seen) < 500 {
			seen[int32(rng.Intn(4*chunkSize))] = true
		}
		return sortedKeys(seen)
	case "dense":
		// ~60% of one chunk: a bitmap container.
		seen := map[int32]bool{}
		for len(seen) < chunkSize*6/10 {
			seen[int32(rng.Intn(chunkSize))] = true
		}
		return sortedKeys(seen)
	case "runs":
		// Long contiguous stretches with gaps: run containers.
		var rows []int32
		at := int32(rng.Intn(100))
		for at < 3*chunkSize {
			n := int32(200 + rng.Intn(2000))
			for v := at; v < at+n && v < 3*chunkSize; v++ {
				rows = append(rows, v)
			}
			at += n + int32(1+rng.Intn(500))
		}
		return rows
	case "boundary":
		// Ids hugging chunk edges, including full first/last words.
		var rows []int32
		for c := int32(0); c < 3; c++ {
			base := c << chunkBits
			for v := int32(0); v < 70; v++ {
				rows = append(rows, base+v)
			}
			for v := int32(chunkSize - 70); v < chunkSize; v++ {
				rows = append(rows, base+v)
			}
		}
		return rows
	case "fullchunk":
		rows := make([]int32, chunkSize)
		for i := range rows {
			rows[i] = chunkSize + int32(i)
		}
		return rows
	}
	panic("unknown shape " + shape)
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

var bitmapShapes = []string{"empty", "single", "sparse", "dense", "runs", "boundary", "fullchunk"}

// buildBitmapTestTable builds a 1000-row table whose dimension values cycle
// at different strides, so codes produce both clustered and scattered
// posting lists.
func buildBitmapTestTable(t *testing.T) *Table {
	t.Helper()
	b := NewBuilder("bm", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "M", Kind: model.KindMeasure},
	})
	names := []string{"u", "v", "w", "x", "y"}
	for i := 0; i < 1000; i++ {
		b.AddRow([]string{names[(i/100)%5], names[i%5]}, []float64{float64(i % 17)})
	}
	return b.Build()
}

func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range bitmapShapes {
		for trial := 0; trial < 4; trial++ {
			rows := genRows(shape, rng)
			bm := NewBitmapFromSorted(rows)
			if bm.Cardinality() != len(rows) {
				t.Fatalf("%s: cardinality %d, want %d", shape, bm.Cardinality(), len(rows))
			}
			got := bm.ToArray(nil)
			if len(got) == 0 && len(rows) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, rows) {
				t.Fatalf("%s: round trip mismatch: got %d rows, want %d", shape, len(got), len(rows))
			}
		}
	}
}

// TestBitmapAndMatchesIntersect pins compressed-container intersection
// against the map-based oracle on every pair of adversarial distributions,
// which exercises all six container-pair kernels.
func TestBitmapAndMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sa := range bitmapShapes {
		for _, sb := range bitmapShapes {
			a := genRows(sa, rng)
			b := genRows(sb, rng)
			want := naiveIntersect(a, b)
			got := And(NewBitmapFromSorted(a), NewBitmapFromSorted(b)).ToArray(nil)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s×%s: bitmap AND disagrees with the oracle: got %d rows, want %d", sa, sb, len(got), len(want))
			}
		}
	}
}

func TestBitmapAndAllMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		lists := [][]int32{
			genRows("dense", rng),
			genRows("runs", rng),
			genRows("sparse", rng),
		}
		want := naiveIntersect(lists...)
		bms := make([]*Bitmap, len(lists))
		for i, l := range lists {
			bms[i] = NewBitmapFromSorted(l)
		}
		got := AndAll(bms...).ToArray(nil)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: AndAll disagrees with the oracle: got %d rows, want %d", trial, len(got), len(want))
		}
	}
}

// checkRowRuns compares bm.RowRuns with the oracle: bm.ToArray coalesced
// into runs of consecutive rows one row at a time.
func checkRowRuns(t *testing.T, what string, bm *Bitmap) {
	t.Helper()
	var want RowRuns
	rows := bm.ToArray(nil)
	for i, r := range rows {
		if i == 0 || r != rows[i-1]+1 {
			want = append(want, RowRun{Row: r, Pos: int32(i)})
		}
	}
	if len(rows) > 0 {
		want = append(want, RowRun{Row: rows[len(rows)-1] + 1, Pos: int32(len(rows))})
	}
	got := bm.RowRuns()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RowRuns %v, coalesced rows %v", what, got, want)
	}
}

// TestBitmapRowRuns pins the interval builder against the coalesced row
// list on every container kind, on runs that cross the 65,536-row chunk
// boundary out of and into each kind, on intersection results, and on the
// empty and single-row sets; a non-empty set must cost exactly one
// allocation.
func TestBitmapRowRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sets := map[string][]int32{}
	for _, shape := range bitmapShapes {
		sets[shape] = genRows(shape, rng)
	}
	// Runs crossing a chunk boundary: array→array, run→run, bitmap→bitmap
	// and run→bitmap, each with a stretch of rows on both sides of it.
	sets["cross/array"] = []int32{5, 9, chunkSize - 2, chunkSize - 1, chunkSize, chunkSize + 1, chunkSize + 7}
	var runs, dense, mixed []int32
	for r := int32(chunkSize - 900); r < chunkSize+900; r++ {
		runs = append(runs, r)
	}
	for r := int32(0); r < 2*chunkSize; r++ {
		if r%3 != 0 || (r >= chunkSize-5 && r < chunkSize+5) {
			dense = append(dense, r)
		}
		if r >= chunkSize-900 && (r < chunkSize || r%3 != 0 || r < chunkSize+5) {
			mixed = append(mixed, r)
		}
	}
	sets["cross/run"], sets["cross/bitmap"], sets["cross/run-bitmap"] = runs, dense, mixed
	for name, rows := range sets {
		bm := NewBitmapFromSorted(rows)
		checkRowRuns(t, name, bm)
		if len(rows) == 0 {
			continue
		}
		if n := testing.AllocsPerRun(5, func() { bm.RowRuns() }); n != 1 {
			t.Errorf("%s: RowRuns made %v allocations, want 1", name, n)
		}
	}
	st := NewBitmapFromSorted(sets["cross/run-bitmap"]).Stats()
	if st.RunContainers != 1 || st.BitmapContainers != 1 {
		t.Fatalf("cross/run-bitmap has containers %+v, want one run and one bitmap", st)
	}
	for na, a := range sets {
		for nb, b := range sets {
			checkRowRuns(t, na+"∧"+nb, And(NewBitmapFromSorted(a), NewBitmapFromSorted(b)))
		}
	}
}

func TestBitmapStats(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dense := NewBitmapFromSorted(genRows("dense", rng))
	runs := NewBitmapFromSorted(genRows("runs", rng))
	sparse := NewBitmapFromSorted(genRows("sparse", rng))
	if s := dense.Stats(); s.BitmapContainers == 0 {
		t.Errorf("dense shape produced no bitmap containers: %+v", s)
	}
	if s := runs.Stats(); s.RunContainers == 0 {
		t.Errorf("run shape produced no run containers: %+v", s)
	}
	if s := sparse.Stats(); s.ArrayContainers == 0 {
		t.Errorf("sparse shape produced no array containers: %+v", s)
	}
	// Clustered data must compress well below the 4-byte-per-row slice form:
	// to at most one byte a row.
	if s := runs.Stats(); s.CompressedBytes > s.Cardinality {
		t.Errorf("run-shaped postings take %d bytes for %d rows", s.CompressedBytes, s.Cardinality)
	}
	var agg BitmapStats
	agg.Add(dense.Stats())
	agg.Add(runs.Stats())
	if agg.Cardinality != int64(dense.Cardinality()+runs.Cardinality()) {
		t.Errorf("aggregate cardinality %d", agg.Cardinality)
	}
}

// checkPostingsAgainstScan checks every posting set of tb against a
// brute-force scan of the dictionary codes.
func checkPostingsAgainstScan(t *testing.T, tb *Table) {
	t.Helper()
	for _, d := range tb.Dimensions() {
		for code := 0; code < d.Cardinality(); code++ {
			var want []int32
			for r, c := range d.Codes() {
				if int(c) == code {
					want = append(want, int32(r))
				}
			}
			bm := d.PostingsBitmap(code)
			if bm.Cardinality() != len(want) {
				t.Fatalf("%s dim %s code %d: cardinality %d, want %d", tb.Name(), d.Name, code, bm.Cardinality(), len(want))
			}
			if got := bm.ToArray(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s dim %s code %d: bitmap postings disagree with a scan of the codes", tb.Name(), d.Name, code)
			}
			if got := d.Postings(code); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s dim %s code %d: Postings disagrees with a scan of the codes", tb.Name(), d.Name, code)
			}
		}
		if d.PostingsBitmap(-1) != nil || d.PostingsBitmap(d.Cardinality()) != nil {
			t.Fatal("out-of-range codes must return nil")
		}
	}
}

func TestPostingsBitmapMatchesPostings(t *testing.T) {
	checkPostingsAgainstScan(t, buildBitmapTestTable(t))
}
