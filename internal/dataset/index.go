package dataset

// Posting sets: for each (dimension, value) pair, the rows holding that
// value, as a compressed bitmap (see bitmap.go). Filtered group-by scans
// drive their filter's posting set — or the exact intersection of several —
// instead of the whole table, the classic inverted-index
// optimization of columnar engines. Sets are built lazily per dimension and
// cached on the column; Table is immutable after Build, so the build is
// idempotent and race-free under sync.Once. A mine needs every column's sets
// at its root, so Table.BuildPostings builds them all at once, in parallel.

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

// BuildPostings builds the posting sets of every dimension column not built
// yet, one column per goroutine up to GOMAXPROCS, the first time it is called
// on the table. Every later call only checks a sync.Once: it starts no
// goroutine and allocates nothing.
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
