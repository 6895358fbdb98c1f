// Package model defines the vocabulary of multi-dimensional data analysis
// used throughout MetaInsight: dimensions and measures, subspaces and sibling
// groups, breakdowns, and data scopes (Definition 2.1 of the paper).
//
// The types here are deliberately free of storage or query concerns; they are
// shared by the storage layer (internal/dataset), the query engine
// (internal/engine), the pattern evaluators (internal/pattern) and the
// MetaInsight formulation (internal/core).
package model

import (
	"fmt"
	"sort"
	"strings"
)

// FieldKind classifies a column of a multi-dimensional dataset.
type FieldKind int

const (
	// KindCategorical marks a dimension whose domain has no intrinsic order
	// (e.g. "City").
	KindCategorical FieldKind = iota
	// KindTemporal marks a dimension whose domain is ordered in time
	// (e.g. "Month"). Temporal breakdowns unlock the time-series pattern
	// types (Trend, Outlier, Seasonality, ChangePoint, Unimodality).
	KindTemporal
	// KindMeasure marks a numerical column on which aggregates are computed
	// (e.g. "Sales").
	KindMeasure
)

// String returns the human-readable name of the field kind.
func (k FieldKind) String() string {
	switch k {
	case KindCategorical:
		return "categorical"
	case KindTemporal:
		return "temporal"
	case KindMeasure:
		return "measure"
	default:
		return fmt.Sprintf("FieldKind(%d)", int(k))
	}
}

// Field describes one column of a dataset.
type Field struct {
	Name string
	Kind FieldKind
}

// AggFunc is an aggregate function applied to a measure column.
type AggFunc int

const (
	// AggSum computes the sum of the measure over each group.
	AggSum AggFunc = iota
	// AggCount computes the number of records in each group. The measure
	// column is ignored; COUNT(*) is written as Count("*").
	AggCount
	// AggAvg computes the arithmetic mean of the measure over each group.
	AggAvg
	// AggMin computes the minimum of the measure over each group.
	AggMin
	// AggMax computes the maximum of the measure over each group.
	AggMax
)

// String returns the SQL-style name of the aggregate function.
func (a AggFunc) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// Additive reports whether the aggregate distributes over disjoint unions of
// record sets. Additive aggregates (SUM, COUNT) are the only ones eligible as
// impact measures, because the impact of a subspace must equal the sum of the
// impacts of any partition of it (Equation 2 / 17 of the paper).
func (a AggFunc) Additive() bool { return a == AggSum || a == AggCount }

// Measure pairs an aggregate function with the measure column it applies to.
// The paper's set M of measures is a set of Measure values.
type Measure struct {
	Agg    AggFunc
	Column string // "*" for COUNT(*)
}

// Sum constructs the measure SUM(column).
func Sum(column string) Measure { return Measure{Agg: AggSum, Column: column} }

// Count constructs the measure COUNT(column); use Count("*") for COUNT(*).
func Count(column string) Measure { return Measure{Agg: AggCount, Column: column} }

// Avg constructs the measure AVG(column).
func Avg(column string) Measure { return Measure{Agg: AggAvg, Column: column} }

// Min constructs the measure MIN(column).
func Min(column string) Measure { return Measure{Agg: AggMin, Column: column} }

// Max constructs the measure MAX(column).
func Max(column string) Measure { return Measure{Agg: AggMax, Column: column} }

// String renders the measure in SQL style, e.g. "SUM(Sales)".
func (m Measure) String() string { return m.Agg.String() + "(" + m.Column + ")" }

// Key returns a canonical identifier for the measure, used in cache keys. It
// is String with the column name escaped (see EscapeKey), so it can be joined
// into larger keys unambiguously.
func (m Measure) Key() string { return m.Agg.String() + "(" + EscapeKey(m.Column) + ")" }

// Filter is a single non-empty filter on one dimension: Dim = Value.
type Filter struct {
	Dim   string
	Value string
}

// String renders the filter as "Dim=Value".
func (f Filter) String() string { return f.Dim + "=" + f.Value }

// Subspace is a set of non-empty filters, at most one per dimension
// (Section 2.1). Dimensions without a filter are implicitly "*" (any value).
// The filters are kept sorted by dimension name, so two subspaces with the
// same filters are structurally equal and Key is canonical.
type Subspace []Filter

// EmptySubspace is the subspace with no filters: every dimension is "*".
// It denotes the entire dataset.
var EmptySubspace = Subspace{}

// NewSubspace builds a subspace from the given filters. It sorts the filters
// by dimension name and panics if the same dimension appears twice, since a
// subspace holds at most one filter per dimension.
func NewSubspace(filters ...Filter) Subspace {
	s := make(Subspace, len(filters))
	copy(s, filters)
	sort.Slice(s, func(i, j int) bool { return s[i].Dim < s[j].Dim })
	for i := 1; i < len(s); i++ {
		if s[i].Dim == s[i-1].Dim {
			panic(fmt.Sprintf("model: duplicate filter on dimension %q", s[i].Dim))
		}
	}
	return s
}

// Len returns the number of non-empty filters in the subspace.
func (s Subspace) Len() int { return len(s) }

// Get returns the filter value on dim and whether dim is filtered at all.
func (s Subspace) Get(dim string) (string, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Dim >= dim })
	if i < len(s) && s[i].Dim == dim {
		return s[i].Value, true
	}
	return "", false
}

// Has reports whether the subspace holds a non-empty filter on dim.
func (s Subspace) Has(dim string) bool {
	_, ok := s.Get(dim)
	return ok
}

// With returns a copy of s with the filter on dim set to value, replacing any
// existing filter on dim. The receiver is not modified.
func (s Subspace) With(dim, value string) Subspace {
	out := make(Subspace, 0, len(s)+1)
	inserted := false
	for _, f := range s {
		switch {
		case f.Dim == dim:
			out = append(out, Filter{Dim: dim, Value: value})
			inserted = true
		case f.Dim > dim && !inserted:
			out = append(out, Filter{Dim: dim, Value: value})
			inserted = true
			out = append(out, f)
		default:
			out = append(out, f)
		}
	}
	if !inserted {
		out = append(out, Filter{Dim: dim, Value: value})
	}
	return out
}

// Without returns a copy of s with any filter on dim removed. If dim is not
// filtered, the result is an equal copy of s.
func (s Subspace) Without(dim string) Subspace {
	out := make(Subspace, 0, len(s))
	for _, f := range s {
		if f.Dim != dim {
			out = append(out, f)
		}
	}
	return out
}

// Key returns a canonical string identifier for the subspace, suitable as a
// cache or set key. The empty subspace's key is "{*}". Dimension names and
// values are escaped (see EscapeKey), so distinct subspaces never share a key.
func (s Subspace) Key() string {
	if len(s) == 0 {
		return "{*}"
	}
	// Keys of mined subspaces (at most a few short filters) fit the stack
	// buffer, so the only allocation is the exact-size result string.
	var stack [128]byte
	return string(s.AppendKey(stack[:0]))
}

// AppendKey appends the subspace's canonical key (see Key) to dst and returns
// the extended slice. Lookups that only need the key transiently use it with
// a scratch buffer to avoid allocating the string.
func (s Subspace) AppendKey(dst []byte) []byte {
	if len(s) == 0 {
		return append(dst, "{*}"...)
	}
	dst = append(dst, '{')
	for i, f := range s {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = AppendEscapedKey(dst, f.Dim)
		dst = append(dst, '=')
		dst = AppendEscapedKey(dst, f.Value)
	}
	return append(dst, '}')
}

// keyEscape is the escape byte of canonical keys.
const keyEscape = '\\'

// keySpecial reports whether c is a separator of some canonical key format
// (Subspace.Key's "{};=", DataScope.Key's and the HDS keys' "|") or the
// escape byte itself.
func keySpecial(c byte) bool {
	switch c {
	case '{', '}', ';', '=', '|', keyEscape:
		return true
	}
	return false
}

// EscapeKey returns s with every key separator byte and the escape byte
// prefixed by a backslash, making s safe to join into a canonical key.
// Strings without such bytes — every ordinary dimension name and value — are
// returned unchanged without allocating.
func EscapeKey(s string) string {
	if firstKeySpecial(s) < 0 {
		return s
	}
	return string(AppendEscapedKey(nil, s))
}

// AppendEscapedKey appends EscapeKey(s) to dst.
func AppendEscapedKey(dst []byte, s string) []byte {
	for {
		i := firstKeySpecial(s)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, keyEscape, s[i])
		s = s[i+1:]
	}
}

// firstKeySpecial returns the index of the first byte of s that needs
// escaping, or -1.
func firstKeySpecial(s string) int {
	for i := 0; i < len(s); i++ {
		if keySpecial(s[i]) {
			return i
		}
	}
	return -1
}

// String renders the subspace using the paper's brace notation, e.g.
// "{City: Los Angeles, Month: April}".
func (s Subspace) String() string {
	if len(s) == 0 {
		return "{*}"
	}
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.Dim + ": " + f.Value
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FilterSet returns the subspace's filters as a set of (Dim, Value) pairs, on
// which the ranker's subspace overlap ratio (Definition 9.1) operates. (As
// "Dim=Value" strings, a=(b=c) and (a=b)=c would be one filter.)
func (s Subspace) FilterSet() map[Filter]bool {
	set := make(map[Filter]bool, len(s))
	for _, f := range s {
		set[f] = true
	}
	return set
}

// DataScope is the paper's Definition 2.1: a subspace together with a
// breakdown dimension and a measure. A data scope identifies one raw data
// distribution — the aggregate of Measure over the sibling group obtained by
// breaking Subspace down by Breakdown.
type DataScope struct {
	Subspace  Subspace
	Breakdown string
	Measure   Measure
}

// Key returns a canonical identifier for the data scope, used as the pattern
// cache key together with a pattern type.
func (ds DataScope) Key() string {
	return ds.Subspace.Key() + "|" + EscapeKey(ds.Breakdown) + "|" + ds.Measure.Key()
}

// String renders the data scope in the paper's 3-tuple notation.
func (ds DataScope) String() string {
	return fmt.Sprintf("⟨%s, %s, %s⟩", ds.Subspace, ds.Breakdown, ds.Measure)
}

// Valid reports whether the data scope is structurally sound: it must not
// filter its own breakdown dimension (breaking down a single fixed value is
// meaningless) and must name a breakdown.
func (ds DataScope) Valid() bool {
	return ds.Breakdown != "" && !ds.Subspace.Has(ds.Breakdown)
}

// ExtensionKind names the three homogeneous-data-scope extension strategies
// of Section 3.2.
type ExtensionKind int

const (
	// ExtendSubspace varies one subspace filter over its sibling group
	// (Equation 4).
	ExtendSubspace ExtensionKind = iota
	// ExtendMeasure varies the measure over the full measure set
	// (Equation 5).
	ExtendMeasure
	// ExtendBreakdown varies the breakdown over all temporal dimensions
	// (Equation 6).
	ExtendBreakdown
)

// String returns the name of the extension strategy.
func (k ExtensionKind) String() string {
	switch k {
	case ExtendSubspace:
		return "subspace-extending"
	case ExtendMeasure:
		return "measure-extending"
	case ExtendBreakdown:
		return "breakdown-extending"
	default:
		return fmt.Sprintf("ExtensionKind(%d)", int(k))
	}
}
