package engine

import (
	"sync"
	"sync/atomic"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

// Interned subspace handles. Mining touches the same few thousand subspaces
// hundreds of thousands of times — as cache keys, plan lookups, cost
// estimates, sibling groups — and almost every touch is a cache hit, so the
// cost of naming a subspace is the cost of the system. An Interner holds one
// immutable Handle per distinct subspace of one table: the subspace value,
// its canonical key built once, its filters resolved to (dimension index,
// dictionary code), the memoized scan plan, and lazily materialised links to
// its parents (one filter removed) and children (one filter added), so the
// hot path navigates base → sibling by (dimension index, code) and never
// builds or re-derives a string.
//
// Strings stay the external identity: trace labels, cache.UnitKey and
// MetaInsight keys are all derived from Handle.Key, which
// equals model.Subspace.Key byte for byte. Inside, every handle carries a
// dense ordinal, and every canonical measure key the interner has seen one
// too; the memos and the miner's replay key units and scopes by them
// (cache.UnitID, cache.ScopeID), so a hit hashes no string.
// Handles themselves — their addresses, ordinals and creation order, which
// depend on worker interleaving — never reach an ordering, a reported hash or
// the wire (DESIGN.md §14).

// Interner is the intern table of one table's subspaces, and through its
// handles the one owner of their scan plans. It also owns the scanned units
// and their pattern evaluations: one query cache, pair memo and pattern memo
// per MIN/MAX set (see units). A Session keeps one for its lifetime and
// hands it to every request's Engine (Config.Interner); an Engine built
// without one keeps a fresh one of its own. It is safe for concurrent use.
// Sharing handles across requests is determinism-safe: every field of a
// Handle is a pure function of the immutable table and the subspace. A
// unit's float sums also depend on the scan that produced it, which timing
// picks; no impact is read from a unit (Engine.ImpactAt), and DESIGN.md §14
// says what else reads them.
type Interner struct {
	tab  *dataset.Table
	dims []*dataset.DimColumn
	root *Handle

	mu    sync.RWMutex
	byKey map[string]*Handle
	memos map[string]unitMemo // by MIN/MAX set, see units
	// handles holds every published handle by ordinal; it is read without
	// the lock.
	handles cache.Slots[atomic.Pointer[Handle]]

	measureIDs  map[string]uint32 // canonical measure key → ordinal
	measureKeys []string          // by ordinal
}

// NewInterner creates an empty intern table over tab.
func NewInterner(tab *dataset.Table) *Interner {
	in := &Interner{
		tab:   tab,
		dims:  tab.Dimensions(),
		byKey: make(map[string]*Handle),
		memos: make(map[string]unitMemo),

		measureIDs: make(map[string]uint32),
	}
	in.root = in.newHandle(model.EmptySubspace, model.EmptySubspace.Key())
	in.publish(in.root)
	return in
}

// publish gives h the next ordinal and makes it the handle of its key. The
// caller holds in.mu for writing, or is NewInterner.
func (in *Interner) publish(h *Handle) {
	h.ord = uint32(len(in.byKey))
	in.handles.Make(uint64(h.ord)).Store(h)
	in.byKey[h.key] = h
}

// handle returns the handle with ordinal ord, which must have been given.
// It takes no lock.
func (in *Interner) handle(ord uint32) *Handle { return in.handles.At(uint64(ord)).Load() }

// measureID returns the ordinal of the canonical measure key k, giving it
// the next one on first use; ok is false when cache.MaxMeasures keys already
// have one.
func (in *Interner) measureID(k string) (id uint32, ok bool) {
	in.mu.RLock()
	id, ok = in.measureIDs[k]
	in.mu.RUnlock()
	if ok {
		return id, true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok = in.measureIDs[k]; ok {
		return id, true
	}
	if len(in.measureKeys) >= cache.MaxMeasures {
		return 0, false
	}
	id = uint32(len(in.measureKeys))
	in.measureIDs[k] = id
	in.measureKeys = append(in.measureKeys, k)
	return id, true
}

// measureKey returns the canonical measure key with ordinal id.
func (in *Interner) measureKey(id uint32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.measureKeys[id]
}

// unitMemo is a query cache and the two memos that travel with it: the
// augmented-pair memo, which holds nothing the cache lacks
// (Engine.scanPair), and the pattern memo, whose evaluations are functions
// of the units they read. The three are created, shared and released
// together.
type unitMemo struct {
	qc       *cache.QueryCache
	pairs    *cache.Memo[augKey, *pairScan]
	patterns *cache.PatternCache[*pattern.ScopeEvaluation]
}

// units returns the interner's unit memo for the MIN/MAX set minMax,
// creating it on first use. A unit's min/max columns are exactly the set's
// columns, so requests with different sets keep apart; the default request
// shape uses one. Nothing is evicted: a memo holds at most one unit per
// (handle, breakdown), and one evaluation per (unit, measure), and lives as
// long as the interner. An evaluation is keyed by its scope alone, so every
// engine over one interner must evaluate with one pattern.Config, as a
// Session's requests do.
func (in *Interner) units(minMax map[string]bool) unitMemo {
	key := make([]byte, 0, len(in.tab.MeasureColumns()))
	for _, mc := range in.tab.MeasureColumns() {
		if minMax[mc.Name] {
			key = append(key, '1')
		} else {
			key = append(key, '0')
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	m, ok := in.memos[string(key)]
	if !ok {
		m = in.newUnitMemo()
		in.memos[string(key)] = m
	}
	return m
}

// newUnitMemo creates an empty unit memo laid out by ordinal (DESIGN.md
// §14): units by handle ordinal × breakdown index, evaluations by that index
// in one table per measure ordinal, made when the measure is first
// evaluated, and augmented scans by base ordinal × dimension pair.
func (in *Interner) newUnitMemo() unitMemo {
	dims := len(in.dims)
	pairs := uint64(dims * (dims - 1) / 2)
	return unitMemo{
		qc: cache.NewMemo[cache.UnitID, cache.Unit](func(id cache.UnitID) (int, uint64) {
			return 0, id.Index(dims)
		}),
		pairs: cache.NewMemo[augKey, *pairScan](func(k augKey) (int, uint64) {
			return 0, uint64(k.base)*pairs + uint64(k.hi)*uint64(k.hi-1)/2 + uint64(k.lo)
		}),
		patterns: cache.NewMemo[cache.ScopeID, *pattern.ScopeEvaluation](func(id cache.ScopeID) (int, uint64) {
			return int(id.Measure()), id.Unit().Index(dims)
		}),
	}
}

// handleFilter is one resolved filter of a handle: the table's dimension
// index and the value's dictionary code. dim is -1 for a dimension the table
// does not have and code -1 for a value absent from its column; either makes
// the subspace match no rows.
type handleFilter struct {
	dim  int32
	code int32
}

// Handle is the interned identity of one subspace. All exported accessors
// return shared immutable data; callers must not modify it.
type Handle struct {
	in      *Interner
	ord     uint32 // dense, in publication order; fixed before publication
	sub     model.Subspace
	key     string
	filters []handleFilter // aligned with sub
	valid   bool           // every filter names a known dimension and value

	// planned is the memoized physical plan (see plan), a pure function of
	// the table and the subspace: every substrate and every cost estimate
	// over this interner reads the same one.
	planned atomic.Pointer[scanPlan]
	planMu  sync.Mutex // serializes building planned

	// parents[i] is the handle without filter i. kids[d], for an unfiltered
	// dimension index d, holds the child handles by dictionary code — the
	// sibling group SG(·, d) of every child. Entries fill on first use.
	parents []atomic.Pointer[Handle]
	kids    []atomic.Pointer[[]atomic.Pointer[Handle]]
}

// Len returns the number of handles interned so far, the empty subspace's
// included. DESIGN.md §14 states how a session's table grows.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.byKey)
}

// Intern returns the handle of s, creating it on first use. Equal subspaces
// always yield the same handle.
func (in *Interner) Intern(s model.Subspace) *Handle {
	if len(s) == 0 {
		return in.root
	}
	return in.intern(s, false)
}

// intern looks s up by its canonical key, built into a stack buffer so a hit
// allocates nothing. owned reports that s is a fresh slice the handle may
// keep; otherwise a miss copies it.
func (in *Interner) intern(s model.Subspace, owned bool) *Handle {
	var stack [128]byte
	kb := s.AppendKey(stack[:0])
	in.mu.RLock()
	h := in.byKey[string(kb)]
	in.mu.RUnlock()
	if h != nil {
		return h
	}
	if !owned {
		s = append(model.Subspace(nil), s...)
	}
	h = in.newHandle(s, string(kb))
	in.mu.Lock()
	if won, ok := in.byKey[h.key]; ok {
		h = won // a racing creator won; the handles are interchangeable
	} else {
		in.publish(h)
	}
	in.mu.Unlock()
	return h
}

func (in *Interner) newHandle(s model.Subspace, key string) *Handle {
	h := &Handle{
		in:      in,
		sub:     s,
		key:     key,
		filters: make([]handleFilter, len(s)),
		valid:   true,
		parents: make([]atomic.Pointer[Handle], len(s)),
		kids:    make([]atomic.Pointer[[]atomic.Pointer[Handle]], len(in.dims)),
	}
	for i, f := range s {
		hf := handleFilter{dim: int32(in.tab.DimensionIndex(f.Dim)), code: -1}
		if hf.dim >= 0 {
			hf.code = int32(in.dims[hf.dim].Code(f.Value))
		}
		if hf.code < 0 {
			h.valid = false
		}
		h.filters[i] = hf
	}
	return h
}

// Key returns the subspace's canonical key, equal to Subspace().Key().
func (h *Handle) Key() string { return h.key }

// Subspace returns the subspace value.
func (h *Handle) Subspace() model.Subspace { return h.sub }

// Len returns the number of filters.
func (h *Handle) Len() int { return len(h.sub) }

// AppendFilterIDs appends one id per filter of h, in filter order: the
// dimension's table index in the high 32 bits and the value's dictionary
// code in the low 32. Two filters of a valid handle have one id exactly
// when they are equal.
func (h *Handle) AppendFilterIDs(ids []uint64) []uint64 {
	for _, f := range h.filters {
		ids = append(ids, uint64(uint32(f.dim))<<32|uint64(uint32(f.code)))
	}
	return ids
}

// Valid reports whether every filter names a dimension of the table and a
// value of that dimension's domain.
func (h *Handle) Valid() bool { return h.valid }

// Has reports whether the subspace filters the dimension with table index
// dim.
func (h *Handle) Has(dim int) bool { return h.filterPos(dim) >= 0 }

func (h *Handle) filterPos(dim int) int {
	for i, f := range h.filters {
		if int(f.dim) == dim {
			return i
		}
	}
	return -1
}

// Without returns the handle of Subspace().Without(name of dim): the parent
// with the filter on dimension index dim removed, or h itself when dim is
// not filtered.
func (h *Handle) Without(dim int) *Handle {
	i := h.filterPos(dim)
	if i < 0 {
		return h
	}
	if p := h.parents[i].Load(); p != nil {
		return p
	}
	var p *Handle
	if len(h.sub) == 1 {
		p = h.in.root
	} else {
		s := make(model.Subspace, 0, len(h.sub)-1)
		s = append(append(s, h.sub[:i]...), h.sub[i+1:]...)
		p = h.in.intern(s, true)
	}
	h.parents[i].Store(p)
	return p
}

// With returns the handle of Subspace().With(name of dim, value of code):
// the child adding that filter, or — when dim is already filtered — the
// sibling carrying the new value. code must be a dictionary code of the
// dimension.
func (h *Handle) With(dim, code int) *Handle {
	if h.Has(dim) {
		h = h.Without(dim)
	}
	g := h.kids[dim].Load()
	if g == nil {
		fresh := make([]atomic.Pointer[Handle], h.in.dims[dim].Cardinality())
		if !h.kids[dim].CompareAndSwap(nil, &fresh) {
			g = h.kids[dim].Load()
		} else {
			g = &fresh
		}
	}
	slot := &(*g)[code]
	if c := slot.Load(); c != nil {
		return c
	}
	col := h.in.dims[dim]
	c := h.in.intern(h.sub.With(col.Name, col.Value(code)), true)
	slot.Store(c)
	return c
}
