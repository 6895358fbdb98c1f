package dataset

// Roaring-style compressed posting lists. A Bitmap stores a set of int32 row
// ids partitioned into 65536-row chunks keyed by the high 16 bits; each chunk
// holds one of three container representations chosen by serialized size:
//
//   - array:  sorted []uint16 of the low 16 bits (2 bytes/row) — sparse chunks
//   - bitmap: 1024×uint64 bitset (8192 bytes flat) — dense chunks
//   - run:    []uint16 pairs of (start, length-1) (4 bytes/run) — clustered
//     chunks, the common shape of cell-ordered synthetic and time-sorted data
//
// Intersections run directly on the compressed containers — word-wise AND for
// bitmap×bitmap, membership probes for array×bitmap, interval merges for run
// containers — and only the final result is materialized, as the maximal runs
// of consecutive rows a scan drives (RowRuns).

import "math/bits"

const (
	chunkBits   = 16
	chunkSize   = 1 << chunkBits // row ids per chunk
	bitmapWords = chunkSize / 64 // words of a bitmap container

	// arrayMaxCard is the cardinality at which an array container (2
	// bytes/value) reaches the flat bitmap container size (8192 bytes).
	arrayMaxCard = chunkSize / 16

	// gallopRatio is the length ratio |large|/|small| above which an
	// array×array intersection switches from the linear merge to galloping
	// search. At ratio r the merge costs small·(1+r) comparisons and
	// galloping about small·log2(large); 8 is past the crossover for every
	// array container size (≤ arrayMaxCard).
	gallopRatio = 8
)

// Container kinds, in tie-break preference order: when two representations
// serialize to the same size the smaller kind value wins, so container choice
// is a pure function of the value set.
const (
	ctArray uint8 = iota
	ctRun
	ctBitmap
)

// container is one chunk of a Bitmap. Exactly one payload slice is non-nil,
// selected by kind.
type container struct {
	kind  uint8
	card  int32
	arr   []uint16 // ctArray: sorted low-16 values
	runs  []uint16 // ctRun: (start, length-1) pairs, sorted by start
	words []uint64 // ctBitmap: chunkSize-bit set
}

// Bitmap is a compressed set of int32 row ids. It is immutable after build
// and safe for concurrent readers.
type Bitmap struct {
	keys []uint16 // ascending chunk keys (row id >> 16)
	ctrs []container
	card int
}

// Cardinality returns the number of row ids in the set.
func (b *Bitmap) Cardinality() int {
	if b == nil {
		return 0
	}
	return b.card
}

// bitmapBuilder assembles a Bitmap from strictly ascending row ids, the order
// posting lists are produced in. Runs accumulate naturally; each finished
// chunk picks the smallest of the three representations.
type bitmapBuilder struct {
	bm       Bitmap
	curKey   int32 // current chunk key, -1 before the first Add
	runs     []uint16
	runStart int32 // current run bounds within the chunk, low 16 bits
	runEnd   int32
	card     int32
}

func newBitmapBuilder() *bitmapBuilder {
	return &bitmapBuilder{curKey: -1}
}

// Add appends one row id; ids must arrive in strictly ascending order.
func (bb *bitmapBuilder) Add(row int32) {
	key := row >> chunkBits
	low := row & (chunkSize - 1)
	if key != bb.curKey {
		bb.flush()
		bb.curKey = key
		bb.runStart, bb.runEnd = low, low
		bb.card = 1
		return
	}
	if low == bb.runEnd+1 {
		bb.runEnd = low
	} else {
		bb.runs = append(bb.runs, uint16(bb.runStart), uint16(bb.runEnd-bb.runStart))
		bb.runStart, bb.runEnd = low, low
	}
	bb.card++
}

// flush finalizes the current chunk, if any.
func (bb *bitmapBuilder) flush() {
	if bb.curKey < 0 {
		return
	}
	runs := append(bb.runs, uint16(bb.runStart), uint16(bb.runEnd-bb.runStart))
	bb.bm.keys = append(bb.bm.keys, uint16(bb.curKey))
	bb.bm.ctrs = append(bb.bm.ctrs, makeContainer(runs, bb.card))
	bb.bm.card += int(bb.card)
	bb.runs = bb.runs[:0]
	bb.curKey = -1
	bb.card = 0
}

// Finish returns the built Bitmap. The builder must not be reused.
func (bb *bitmapBuilder) Finish() *Bitmap {
	bb.flush()
	bm := bb.bm
	return &bm
}

// makeContainer picks the smallest representation for a chunk given its run
// decomposition (pairs of start, length-1) and cardinality. Size ties break
// by kind order (array, then run, then bitmap), so the choice is
// deterministic for a given value set.
func makeContainer(runs []uint16, card int32) container {
	arraySize := 2 * int(card)
	runSize := 2 * len(runs) // 4 bytes per (start, len) pair
	if arraySize <= runSize && int(card) <= arrayMaxCard {
		arr := make([]uint16, 0, card)
		for i := 0; i < len(runs); i += 2 {
			start, n := int32(runs[i]), int32(runs[i+1])
			for v := start; v <= start+n; v++ {
				arr = append(arr, uint16(v))
			}
		}
		return container{kind: ctArray, card: card, arr: arr}
	}
	if runSize < 8*bitmapWords {
		return container{kind: ctRun, card: card, runs: append([]uint16(nil), runs...)}
	}
	words := make([]uint64, bitmapWords)
	for i := 0; i < len(runs); i += 2 {
		start, n := int32(runs[i]), int32(runs[i+1])
		setRange(words, start, start+n)
	}
	return container{kind: ctBitmap, card: card, words: words}
}

// setRange sets bits [lo, hi] (inclusive) in a bitmap container word array.
func setRange(words []uint64, lo, hi int32) {
	wl, wh := lo>>6, hi>>6
	first := ^uint64(0) << uint(lo&63)
	last := ^uint64(0) >> uint(63-hi&63)
	if wl == wh {
		words[wl] |= first & last
		return
	}
	words[wl] |= first
	for w := wl + 1; w < wh; w++ {
		words[w] = ^uint64(0)
	}
	words[wh] |= last
}

// normalize re-picks the smallest representation for a freshly intersected
// container. Intersection kernels produce arrays or bitmaps; dense or
// clustered results shrink back to the compact form here so chained ANDs and
// retained results stay small.
func (c container) normalize() container {
	if c.kind == ctBitmap && int(c.card) <= arrayMaxCard {
		arr := make([]uint16, 0, c.card)
		for w, word := range c.words {
			for word != 0 {
				arr = append(arr, uint16(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		return container{kind: ctArray, card: c.card, arr: arr}
	}
	return c
}

// appendRows appends the container's row ids, offset by base (chunk key <<
// 16), to dst in ascending order.
func (c *container) appendRows(dst []int32, base int32) []int32 {
	switch c.kind {
	case ctArray:
		for _, v := range c.arr {
			dst = append(dst, base|int32(v))
		}
	case ctRun:
		for i := 0; i < len(c.runs); i += 2 {
			start, n := int32(c.runs[i]), int32(c.runs[i+1])
			for v := start; v <= start+n; v++ {
				dst = append(dst, base|v)
			}
		}
	case ctBitmap:
		for w, word := range c.words {
			for word != 0 {
				dst = append(dst, base|int32(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	return dst
}

// ToArray materializes the set as ascending row ids appended to dst.
func (b *Bitmap) ToArray(dst []int32) []int32 {
	if b == nil {
		return dst
	}
	if cap(dst)-len(dst) < b.card {
		grown := make([]int32, len(dst), len(dst)+b.card)
		copy(grown, dst)
		dst = grown
	}
	for i := range b.ctrs {
		dst = b.ctrs[i].appendRows(dst, int32(b.keys[i])<<chunkBits)
	}
	return dst
}

// RowRun is one entry of a RowRuns list.
type RowRun struct {
	Row int32 // first row of the run
	Pos int32 // rows of the set before the run
}

// RowRuns is an ascending row set held as its maximal runs of consecutive
// rows, closed by a sentinel whose Row is one past the last row and whose Pos
// is the set's cardinality: run k covers rows [rr[k].Row, rr[k].Row +
// rr[k+1].Pos - rr[k].Pos). Keeping each run's position beside its first row
// lets a scan seek to the i-th row of the set by binary search. The empty set
// is nil.
type RowRuns []RowRun

// RowRuns returns the set as maximal runs of consecutive rows in one
// exact-size allocation (none for the empty set). Run containers map
// directly, array and bitmap containers coalesce consecutive rows, and runs
// that cross a chunk boundary coalesce too.
func (b *Bitmap) RowRuns() RowRuns {
	if b.Cardinality() == 0 {
		return nil
	}
	n, _ := b.walkRuns(nil)
	rr := make(RowRuns, n+1)
	_, end := b.walkRuns(rr)
	rr[n] = RowRun{Row: end, Pos: int32(b.card)}
	return rr
}

// walkRuns visits the set's maximal runs in ascending order, writing run k
// to out[k] unless out is nil. It returns the number of runs and one past
// the last row.
func (b *Bitmap) walkRuns(out RowRuns) (n int, end int32) {
	end = -1 // one past the last row visited; a row equal to it extends the run
	var pos int32
	for i := range b.ctrs {
		c := &b.ctrs[i]
		base := int32(b.keys[i]) << chunkBits
		switch c.kind {
		case ctArray:
			for _, v := range c.arr {
				row := base | int32(v)
				if row != end {
					if out != nil {
						out[n] = RowRun{Row: row, Pos: pos}
					}
					n++
				}
				end = row + 1
				pos++
			}
		case ctRun:
			for j := 0; j < len(c.runs); j += 2 {
				row, l := base|int32(c.runs[j]), int32(c.runs[j+1])+1
				if row != end {
					if out != nil {
						out[n] = RowRun{Row: row, Pos: pos}
					}
					n++
				}
				end = row + l
				pos += l
			}
		case ctBitmap:
			for w, word := range c.words {
				if word == 0 {
					continue
				}
				wbase := base + int32(w<<6)
				var carry uint64 // bit 0 continues a run when the row before it is set
				if end == wbase {
					carry = 1
				}
				starts := word &^ (word<<1 | carry)
				if out == nil {
					n += bits.OnesCount64(starts)
				} else {
					for ; starts != 0; starts &= starts - 1 {
						bit := bits.TrailingZeros64(starts)
						out[n] = RowRun{Row: wbase + int32(bit), Pos: pos + int32(bits.OnesCount64(word&(1<<bit-1)))}
						n++
					}
				}
				pos += int32(bits.OnesCount64(word))
				end = wbase + 64 - int32(bits.LeadingZeros64(word))
			}
		}
	}
	return n, end
}

// And intersects two bitmaps into a fresh Bitmap; neither input is mutated.
func And(a, b *Bitmap) *Bitmap {
	if a == nil || b == nil || a.card == 0 || b.card == 0 {
		return &Bitmap{}
	}
	out := &Bitmap{}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		ka, kb := a.keys[i], b.keys[j]
		switch {
		case ka < kb:
			i++
		case ka > kb:
			j++
		default:
			c := andContainers(&a.ctrs[i], &b.ctrs[j])
			if c.card > 0 {
				out.keys = append(out.keys, ka)
				out.ctrs = append(out.ctrs, c.normalize())
				out.card += int(c.card)
			}
			i++
			j++
		}
	}
	return out
}

// AndAll intersects any number of bitmaps, smallest cardinality first so
// every pairwise step shrinks the candidate set as fast as possible. The
// order is stable for equal cardinalities, so the result — and any cost
// metered off it — is deterministic. Returns nil when bms is empty.
func AndAll(bms ...*Bitmap) *Bitmap {
	switch len(bms) {
	case 0:
		return nil
	case 1:
		return bms[0]
	}
	ordered := make([]*Bitmap, len(bms))
	copy(ordered, bms)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Cardinality() < ordered[j-1].Cardinality(); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	out := And(ordered[0], ordered[1])
	for i := 2; i < len(ordered) && out.card > 0; i++ {
		out = And(out, ordered[i])
	}
	return out
}

// andContainers dispatches the fused per-pair AND kernels. It never mutates
// its inputs.
func andContainers(a, b *container) container {
	// Order by kind so each pair is handled once.
	if a.kind > b.kind {
		a, b = b, a
	}
	switch {
	case a.kind == ctArray && b.kind == ctArray:
		return andArrayArray(a, b)
	case a.kind == ctArray && b.kind == ctRun:
		return andArrayRun(a, b)
	case a.kind == ctArray && b.kind == ctBitmap:
		return andArrayBitmap(a, b)
	case a.kind == ctRun && b.kind == ctRun:
		return andRunRun(a, b)
	case a.kind == ctRun && b.kind == ctBitmap:
		return andRunBitmap(a, b)
	default:
		return andBitmapBitmap(a, b)
	}
}

// andArrayArray merges two sorted arrays, galloping (exponential probe +
// binary search) when one side is much longer.
func andArrayArray(a, b *container) container {
	x, y := a.arr, b.arr
	if len(x) > len(y) {
		x, y = y, x
	}
	out := make([]uint16, 0, len(x))
	if len(y) >= gallopRatio*len(x) {
		lo := 0
		for _, v := range x {
			step := 1
			hi := lo
			for hi < len(y) && y[hi] < v {
				lo = hi + 1
				hi += step
				step <<= 1
			}
			if hi > len(y) {
				hi = len(y)
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if y[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo >= len(y) {
				break
			}
			if y[lo] == v {
				out = append(out, v)
				lo++
			}
		}
	} else {
		i, j := 0, 0
		for i < len(x) && j < len(y) {
			xv, yv := x[i], y[j]
			switch {
			case xv < yv:
				i++
			case xv > yv:
				j++
			default:
				out = append(out, xv)
				i++
				j++
			}
		}
	}
	return container{kind: ctArray, card: int32(len(out)), arr: out}
}

// andArrayBitmap probes each array value against the bitmap words — one
// masked load per value.
func andArrayBitmap(a, b *container) container {
	out := make([]uint16, 0, len(a.arr))
	for _, v := range a.arr {
		if b.words[v>>6]&(1<<(v&63)) != 0 {
			out = append(out, v)
		}
	}
	return container{kind: ctArray, card: int32(len(out)), arr: out}
}

// andArrayRun keeps the array values covered by a run, advancing both sorted
// sequences in one pass.
func andArrayRun(a, b *container) container {
	out := make([]uint16, 0, len(a.arr))
	r := 0
	for _, v := range a.arr {
		for r < len(b.runs) && int32(b.runs[r])+int32(b.runs[r+1]) < int32(v) {
			r += 2
		}
		if r >= len(b.runs) {
			break
		}
		if b.runs[r] <= v {
			out = append(out, v)
		}
	}
	return container{kind: ctArray, card: int32(len(out)), arr: out}
}

// andRunRun intersects two sorted interval lists into a run container.
func andRunRun(a, b *container) container {
	var runs []uint16
	var card int32
	i, j := 0, 0
	for i < len(a.runs) && j < len(b.runs) {
		as, ae := int32(a.runs[i]), int32(a.runs[i])+int32(a.runs[i+1])
		bs, be := int32(b.runs[j]), int32(b.runs[j])+int32(b.runs[j+1])
		lo, hi := as, ae
		if bs > lo {
			lo = bs
		}
		if be < hi {
			hi = be
		}
		if lo <= hi {
			runs = append(runs, uint16(lo), uint16(hi-lo))
			card += hi - lo + 1
		}
		if ae < be {
			i += 2
		} else {
			j += 2
		}
	}
	return makeContainer(runs, card)
}

// andRunBitmap masks the bitmap words covered by each run into a fresh
// bitmap container; normalize() shrinks sparse results afterwards.
func andRunBitmap(a, b *container) container {
	words := make([]uint64, bitmapWords)
	var card int32
	for i := 0; i < len(a.runs); i += 2 {
		lo := int32(a.runs[i])
		hi := lo + int32(a.runs[i+1])
		wl, wh := lo>>6, hi>>6
		for w := wl; w <= wh; w++ {
			mask := ^uint64(0)
			if w == wl {
				mask &= ^uint64(0) << uint(lo&63)
			}
			if w == wh {
				mask &= ^uint64(0) >> uint(63-hi&63)
			}
			word := b.words[w] & mask
			words[w] |= word
			card += int32(bits.OnesCount64(word))
		}
	}
	return container{kind: ctBitmap, card: card, words: words}
}

// andBitmapBitmap is the word-wise kernel: 1024 uint64 ANDs with an inline
// popcount.
func andBitmapBitmap(a, b *container) container {
	words := make([]uint64, bitmapWords)
	var card int32
	for w := range words {
		v := a.words[w] & b.words[w]
		words[w] = v
		card += int32(bits.OnesCount64(v))
	}
	return container{kind: ctBitmap, card: card, words: words}
}

// BitmapStats summarizes a Bitmap's storage by container type. Compressed
// bytes count the container payloads plus a 6-byte per-container header
// (chunk key, kind, cardinality), mirroring the roaring serialized format
// closely enough to stand in for an on-disk footprint.
type BitmapStats struct {
	Containers       int
	ArrayContainers  int
	RunContainers    int
	BitmapContainers int
	CompressedBytes  int64
	Cardinality      int64
}

// Add accumulates other into s, so per-column stats roll up to a table view.
func (s *BitmapStats) Add(other BitmapStats) {
	s.Containers += other.Containers
	s.ArrayContainers += other.ArrayContainers
	s.RunContainers += other.RunContainers
	s.BitmapContainers += other.BitmapContainers
	s.CompressedBytes += other.CompressedBytes
	s.Cardinality += other.Cardinality
}

// Stats reports the bitmap's container composition and byte footprint.
func (b *Bitmap) Stats() BitmapStats {
	if b == nil {
		return BitmapStats{}
	}
	s := BitmapStats{Containers: len(b.ctrs), Cardinality: int64(b.card)}
	for i := range b.ctrs {
		c := &b.ctrs[i]
		s.CompressedBytes += 6
		switch c.kind {
		case ctArray:
			s.ArrayContainers++
			s.CompressedBytes += 2 * int64(len(c.arr))
		case ctRun:
			s.RunContainers++
			s.CompressedBytes += 2 * int64(len(c.runs))
		case ctBitmap:
			s.BitmapContainers++
			s.CompressedBytes += 8 * bitmapWords
		}
	}
	return s
}
