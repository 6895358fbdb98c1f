package dataset

// Zone maps: per-block min/max dictionary codes of a dimension column, the
// classic small-materialized-aggregate trick: a block whose code range
// excludes a filter value can be skipped without touching a single row. Like
// posting lists, zone maps are built lazily in one O(rows) pass and cached on
// the immutable column, at a block size the caller supplies.
//
// The engine does not plan through them: every filtered scan drives the
// exact intersection of its posting sets. Their only non-test caller is the
// benchmark's index-build span (benchmark/layers.go:52); they go when it does.

// ZoneMap holds the per-block [min, max] dictionary-code ranges of one
// dimension column at one block size. It is immutable after construction and
// has no accessors: nothing reads a zone map, the benchmark times its build.
type ZoneMap struct {
	blockRows int
	mins      []int32
	maxs      []int32
}

// Zones returns the column's zone map at the given block size, building it
// on first use and caching it per size. blockRows must be positive.
func (c *DimColumn) Zones(blockRows int) *ZoneMap {
	if blockRows <= 0 {
		blockRows = 1
	}
	c.zoneMu.Lock()
	defer c.zoneMu.Unlock()
	if z, ok := c.zones[blockRows]; ok {
		return z
	}
	nb := (len(c.codes) + blockRows - 1) / blockRows
	z := &ZoneMap{
		blockRows: blockRows,
		mins:      make([]int32, nb),
		maxs:      make([]int32, nb),
	}
	for b := 0; b < nb; b++ {
		lo := b * blockRows
		hi := lo + blockRows
		if hi > len(c.codes) {
			hi = len(c.codes)
		}
		mn, mx := c.codes[lo], c.codes[lo]
		for _, code := range c.codes[lo+1 : hi] {
			if code < mn {
				mn = code
			}
			if code > mx {
				mx = code
			}
		}
		z.mins[b], z.maxs[b] = mn, mx
	}
	if c.zones == nil {
		c.zones = make(map[int]*ZoneMap)
	}
	c.zones[blockRows] = z
	return z
}
