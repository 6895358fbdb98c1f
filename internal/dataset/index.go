package dataset

// Posting sets and code runs, the two per-column indexes a scan reads.
//
// Posting sets: for each (dimension, value) pair, the rows holding that
// value, as a compressed bitmap (see bitmap.go). Filtered group-by scans
// drive their filter's posting set — or the exact intersection of several —
// instead of the whole table, the classic inverted-index
// optimization of columnar engines.
//
// Code runs: the exclusive end row of every maximal run of at least
// MinCodeRun equal codes, ascending (RunEnds). Real tables are clustered, so
// a scan's group-by columns hold their values in long runs; a scan that has
// seen MinCodeRun equal codes stands inside a kept run and jumps to its end
// instead of comparing codes row by row. Keeping only the long runs bounds
// the list at rows / MinCodeRun entries whatever the row order: a shuffled
// column keeps few.
//
// Both are built together, lazily, once per column, and cached on it; Table
// is immutable after Build, so the build is idempotent and race-free under
// sync.Once. A mine needs every column's sets at its root, so
// Table.BuildPostings builds them all at once, in parallel.

// MinCodeRun is the shortest run of equal codes whose end a column keeps
// (see RunEnds).
const MinCodeRun = 4

// Postings returns the row ids holding the given dictionary code, in
// ascending order, or nil for an out-of-range code. It materializes a fresh
// list from the compressed posting set on every call; nothing is cached
// beyond what PostingsBitmap caches.
func (c *DimColumn) Postings(code int) []int32 {
	return c.PostingsBitmap(code).ToArray(nil)
}

// PostingsBitmap returns the compressed bitmap posting set of the given
// dictionary code, or nil for an out-of-range code (e.g. the -1 of an absent
// filter value); the bounds check runs against the dictionary first, so such
// a code never triggers the build. The first valid call per column
// materializes the bitmaps for every code in one O(rows) pass over the
// dictionary codes — row ids arrive in ascending order per code by
// construction, which is exactly the builder's input contract.
func (c *DimColumn) PostingsBitmap(code int) *Bitmap {
	if code < 0 || code >= len(c.dict) {
		return nil
	}
	c.bmOnce.Do(c.buildBitmapPostings)
	return c.bmPost[code]
}

// RunEnds returns, ascending, the exclusive end row of every maximal run of
// at least MinCodeRun rows holding one code; nil when there is none. For a
// row inside such a run, the first entry greater than the row is that run's
// end. The first call builds the column's posting sets too. The returned
// slice is shared; callers must not modify it.
func (c *DimColumn) RunEnds() []int32 {
	c.bmOnce.Do(c.buildBitmapPostings)
	return c.runEnds
}

// BuildPostings builds the posting sets and run ends of every dimension
// column not built yet, one column per goroutine up to GOMAXPROCS, the first
// time it is called on the table. Every later call only checks a sync.Once:
// it starts no goroutine and allocates nothing.
func (t *Table) BuildPostings() {
	t.postings.Do(func() {
		forEach(len(t.dims), func(i int) { t.dims[i].bmOnce.Do(t.dims[i].buildBitmapPostings) })
	})
}

func (c *DimColumn) buildBitmapPostings() {
	builders := make([]*bitmapBuilder, len(c.dict))
	for i := range builders {
		builders[i] = newBitmapBuilder()
	}
	for r, code := range c.codes {
		builders[code].Add(int32(r))
	}
	bms := make([]*Bitmap, len(builders))
	for i, bb := range builders {
		bms[i] = bb.Finish()
	}
	c.bmPost = bms
	c.runEnds = codeRunEnds(c.codes)
}

// codeRunEnds returns the exclusive ends of codes' maximal runs of at least
// MinCodeRun equal codes, ascending, in one exact-size allocation (none when
// there is no such run): a counting pass, then a filling pass.
func codeRunEnds(codes []int32) []int32 {
	n := walkCodeRuns(codes, nil)
	if n == 0 {
		return nil
	}
	ends := make([]int32, n)
	walkCodeRuns(codes, ends)
	return ends
}

// walkCodeRuns visits codes' maximal runs of at least MinCodeRun equal codes
// in order, writing the end of the k-th to out[k] unless out is nil, and
// returns how many there are.
func walkCodeRuns(codes []int32, out []int32) int {
	n := 0
	for i := 0; i < len(codes); {
		j := i + 1
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		if j-i >= MinCodeRun {
			if out != nil {
				out[n] = int32(j)
			}
			n++
		}
		i = j
	}
	return n
}

// BitmapPostingsStats builds the column's bitmap postings if needed and
// reports their aggregate container composition and byte footprint.
func (c *DimColumn) BitmapPostingsStats() BitmapStats {
	c.bmOnce.Do(c.buildBitmapPostings)
	var s BitmapStats
	for _, bm := range c.bmPost {
		s.Add(bm.Stats())
	}
	return s
}
