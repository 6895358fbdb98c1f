// Package core implements the MetaInsight formulation of Sections 3 and 4.1:
// homogeneous data scopes (Definition 3.2) built by the three extension
// strategies, homogeneous data patterns (Definition 3.3), the Sim equivalence
// relation (Equation 8), the partition into commonness(es) and exceptions
// (Definitions 3.4 and 3.5), exception categorization, and the scoring
// function (conciseness entropy, the S* bound of Lemma 4.1, the actionability
// regularization and the impact factor, Equations 13-18).
package core

import (
	"fmt"
	"strings"

	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

// DataPattern is the paper's basic data pattern (Definition 3.1) after the
// type-induced generative function has been applied: Type is either a
// concrete pattern type (with Highlight set) or one of the OtherPattern /
// NoPattern placeholders.
type DataPattern struct {
	Scope     model.DataScope
	Type      pattern.Type
	Highlight pattern.Highlight
}

// Sim is the boolean similarity of Equation 8: two data patterns are similar
// iff they share both type and highlight; patterns with a placeholder type
// are never similar to anything.
func Sim(a, b DataPattern) bool {
	if !a.Type.Concrete() || !b.Type.Concrete() {
		return false
	}
	return a.Type == b.Type && a.Highlight.Equal(b.Highlight)
}

// HDS is a homogeneous data scope (Definition 3.2): the set of data scopes
// derived from an anchor by one extension strategy.
type HDS struct {
	Kind   model.ExtensionKind
	Anchor model.DataScope
	// ExtDim is the varied dimension for subspace extension, "" otherwise.
	ExtDim string
	Scopes []model.DataScope
}

// Key returns the canonical identity of the HDS. For subspace extension the
// anchor's own filter value on the extended dimension is excluded, so the
// same sibling-group HDS reached from different anchors has one key — the
// property the miner's deduplication and the precision metric rely on.
func (h HDS) Key() string {
	return HDSKey(h.Kind, h.RootSubspace().Key(), h.ExtDim, h.Anchor.Breakdown, h.Anchor.Measure.Key())
}

// HDSKey assembles HDS.Key from parts, for callers that already hold them as
// canonical strings: rootKey is the key of HDS.RootSubspace, measureKey the
// anchor measure's.
func HDSKey(kind model.ExtensionKind, rootKey, extDim, breakdown, measureKey string) string {
	return string(AppendHDSKey(nil, kind, rootKey, extDim, breakdown, measureKey))
}

// AppendHDSKey appends HDSKey(kind, rootKey, extDim, breakdown, measureKey)
// to dst. It is the single definition of the key format.
func AppendHDSKey(dst []byte, kind model.ExtensionKind, rootKey, extDim, breakdown, measureKey string) []byte {
	switch kind {
	case model.ExtendSubspace:
		dst = append(append(append(dst, "S|"...), rootKey...), '|')
		dst = append(model.AppendEscapedKey(dst, extDim), '|')
		return append(append(model.AppendEscapedKey(dst, breakdown), '|'), measureKey...)
	case model.ExtendMeasure:
		dst = append(append(append(dst, "M|"...), rootKey...), '|')
		return model.AppendEscapedKey(dst, breakdown)
	case model.ExtendBreakdown:
		return append(append(append(append(dst, "B|"...), rootKey...), '|'), measureKey...)
	default:
		panic(fmt.Sprintf("core: unknown extension kind %v", kind))
	}
}

// RootSubspace returns the subspace identifying the HDS as a whole: for
// subspace extension, the anchor subspace with the extended filter removed;
// otherwise the anchor subspace itself. The ranker's overlap ratio
// (Definition 9.1) compares these.
func (h HDS) RootSubspace() model.Subspace {
	if h.Kind == model.ExtendSubspace {
		return h.Anchor.Subspace.Without(h.ExtDim)
	}
	return h.Anchor.Subspace
}

// SubspaceHDS applies Exd_si (Equation 4): vary the filter on dim over its
// domain while keeping breakdown and measure fixed. domain is dom(dim).
func SubspaceHDS(anchor model.DataScope, dim string, domain []string) HDS {
	h := HDS{Kind: model.ExtendSubspace, Anchor: anchor, ExtDim: dim,
		Scopes: make([]model.DataScope, len(domain))}
	for i, v := range domain {
		h.Scopes[i] = model.DataScope{
			Subspace:  anchor.Subspace.With(dim, v),
			Breakdown: anchor.Breakdown,
			Measure:   anchor.Measure,
		}
	}
	return h
}

// MeasureHDS applies Exd_m (Equation 5): vary the measure over the full
// measure set M while keeping subspace and breakdown fixed.
func MeasureHDS(anchor model.DataScope, measures []model.Measure) HDS {
	h := HDS{Kind: model.ExtendMeasure, Anchor: anchor,
		Scopes: make([]model.DataScope, len(measures))}
	for i, m := range measures {
		h.Scopes[i] = model.DataScope{Subspace: anchor.Subspace, Breakdown: anchor.Breakdown, Measure: m}
	}
	return h
}

// BreakdownHDS applies Exd_b (Equation 6): vary the breakdown over all
// temporal dimensions (the paper restricts breakdown extension to temporal
// dimensions so the homogeneous scopes stay semantically comparable).
// Dimensions filtered in the anchor's subspace are skipped, since a data
// scope may not break down a dimension it fixes.
func BreakdownHDS(anchor model.DataScope, temporalDims []string) HDS {
	h := HDS{Kind: model.ExtendBreakdown, Anchor: anchor,
		Scopes: make([]model.DataScope, 0, len(temporalDims))}
	for _, b := range temporalDims {
		if anchor.Subspace.Has(b) {
			continue
		}
		h.Scopes = append(h.Scopes, model.DataScope{
			Subspace:  anchor.Subspace,
			Breakdown: b,
			Measure:   anchor.Measure,
		})
	}
	return h
}

// HDP is a homogeneous data pattern (Definition 3.3): the type-induced data
// patterns of an HDS under one concrete pattern type.
type HDP struct {
	HDS      HDS
	Type     pattern.Type
	Patterns []DataPattern

	// key memoizes Key for HDPs built by NewHDP: result ordering compares
	// keys O(n log n) times per run, and an HDP's identity never changes.
	key string
}

// NewHDP builds an HDP with its identity key memoized. key must be the HDP's
// canonical key — hds.Key() + "|" + t.String() — which the miner already
// holds as the unit's identity; pass "" to have it computed here.
func NewHDP(key string, hds HDS, t pattern.Type, patterns []DataPattern) *HDP {
	h := &HDP{HDS: hds, Type: t, Patterns: patterns, key: key}
	if key == "" {
		h.key = h.buildKey()
	}
	return h
}

// Key returns the canonical identity of the HDP (and of any MetaInsight built
// from it): the HDS key plus the pattern type. It is a field read for HDPs
// built by NewHDP; literals and decoded values compute it on each call.
func (h *HDP) Key() string {
	if h.key != "" {
		return h.key
	}
	return h.buildKey()
}

func (h *HDP) buildKey() string { return h.HDS.Key() + "|" + h.Type.String() }

// Commonness is one Sim-equivalence class whose ratio exceeds τ
// (Definition 3.4): a set of data patterns sharing type and highlight.
type Commonness struct {
	Highlight pattern.Highlight
	// Indices point into the parent HDP's Patterns.
	Indices []int
	// Ratio is |C| / |HDP|.
	Ratio float64
}

// ExceptionCategory is the paper's three-way exception categorization
// (Section 4.1).
type ExceptionCategory int

const (
	// HighlightChange: a valid pattern of the HDP's type whose highlight
	// differs from every commonness.
	HighlightChange ExceptionCategory = iota
	// TypeChange: the scope exhibits some other pattern type.
	TypeChange
	// NoPatternException: the scope exhibits no pattern at all.
	NoPatternException
)

// String names the exception category.
func (c ExceptionCategory) String() string {
	switch c {
	case HighlightChange:
		return "highlight-change"
	case TypeChange:
		return "type-change"
	case NoPatternException:
		return "no-pattern"
	default:
		return fmt.Sprintf("ExceptionCategory(%d)", int(c))
	}
}

// Exception is one exceptional data pattern with its category.
type Exception struct {
	Index    int // into the parent HDP's Patterns
	Category ExceptionCategory
}

// MetaInsight is Definition 3.5 plus the fine-grained representation of
// Definition 4.1 and its score: an HDP categorized into a non-empty
// commonness set and exceptions.
type MetaInsight struct {
	HDP        *HDP
	CommSet    []Commonness
	Exceptions []Exception

	// Alphas are the commonness proportions α_1..α_u (each > τ), aligned
	// with CommSet. Betas are the proportions β_1..β_v of the exception
	// categories actually present, aligned with BetaCategories.
	Alphas         []float64
	Betas          []float64
	BetaCategories []ExceptionCategory

	// ImpactHDS is Equation 17's importance factor.
	ImpactHDS float64
	// Entropy is S of Equation 13, in bits.
	Entropy float64
	// Conciseness is the regularized conciseness of Equation 16, in [0, 1].
	Conciseness float64
	// Score is Equation 18: f(Conciseness) × g(ImpactHDS).
	Score float64
}

// Key returns the MetaInsight's canonical identity (the HDP key); the
// MetaInsight precision metric (Definition 5.1) intersects sets of these.
func (mi *MetaInsight) Key() string { return mi.HDP.Key() }

// HasExceptions reports whether any exception is present — the property the
// user study found strongly correlated with follow-up-analysis interest.
func (mi *MetaInsight) HasExceptions() bool { return len(mi.Exceptions) > 0 }

// String renders a compact one-line summary.
func (mi *MetaInsight) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MetaInsight[%s %s on %s", mi.HDP.Type, mi.HDP.HDS.Kind, mi.HDP.HDS.Key())
	fmt.Fprintf(&b, " | %d commonness, %d exceptions, score=%.3f]",
		len(mi.CommSet), len(mi.Exceptions), mi.Score)
	return b.String()
}

// BuildMetaInsight categorizes an HDP into commonness(es) and exceptions at
// commonness threshold tau and scores the result. It returns (nil, false)
// when the HDP yields no valid MetaInsight — i.e. when no Sim-equivalence
// class clears τ (Definition 3.5 requires CommSet ≠ ∅) or the HDP has fewer
// than two patterns.
func BuildMetaInsight(hdp *HDP, impactHDS float64, tau float64) (*MetaInsight, bool) {
	n := len(hdp.Patterns)
	if n < 2 {
		return nil, false
	}
	// Partition the valid patterns into Sim-equivalence classes by
	// highlight key, preserving first-seen order for determinism. An HDP has
	// a handful of classes, so a pattern finds its class by scanning them.
	var classes [][]int // members per class; the first carries the highlight
	var others, nones []int
	for i, dp := range hdp.Patterns {
		switch {
		case dp.Type == hdp.Type:
			c := 0
			for c < len(classes) && !dp.Highlight.Equal(hdp.Patterns[classes[c][0]].Highlight) {
				c++
			}
			if c == len(classes) {
				classes = append(classes, nil)
			}
			classes[c] = append(classes[c], i)
		case dp.Type == pattern.OtherPattern:
			others = append(others, i)
		case dp.Type == pattern.NoPattern:
			nones = append(nones, i)
		default:
			// A pattern of a different concrete type inside this HDP would
			// be a construction bug: dp() maps non-matching types to
			// OtherPattern.
			panic(fmt.Sprintf("core: HDP of type %v contains pattern of type %v", hdp.Type, dp.Type))
		}
	}

	counts := make([]int, len(classes))
	for c, members := range classes {
		counts[c] = len(members)
	}
	sc, ok := ScoreCounts(counts, len(others), len(nones), impactHDS, tau)
	if !ok {
		return nil, false
	}

	mi := &MetaInsight{HDP: hdp, ImpactHDS: impactHDS,
		Entropy: sc.Entropy, Conciseness: sc.Conciseness, Score: sc.Score}
	var highlightChanges []int
	total := float64(n)
	for _, members := range classes {
		ratio := float64(len(members)) / total
		if ratio > tau {
			mi.CommSet = append(mi.CommSet, Commonness{
				Highlight: hdp.Patterns[members[0]].Highlight,
				Indices:   members,
				Ratio:     ratio,
			})
			mi.Alphas = append(mi.Alphas, ratio)
		} else {
			highlightChanges = append(highlightChanges, members...)
		}
	}
	appendCat := func(indices []int, cat ExceptionCategory) {
		if len(indices) == 0 {
			return
		}
		for _, i := range indices {
			mi.Exceptions = append(mi.Exceptions, Exception{Index: i, Category: cat})
		}
		mi.Betas = append(mi.Betas, float64(len(indices))/total)
		mi.BetaCategories = append(mi.BetaCategories, cat)
	}
	appendCat(highlightChanges, HighlightChange)
	appendCat(others, TypeChange)
	appendCat(nones, NoPatternException)
	return mi, true
}
