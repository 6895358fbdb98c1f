package core

import (
	"sort"

	"metainsight/internal/pattern"
	"metainsight/internal/stats"
)

// This file implements the "alternative structured representation" the
// paper's Discussion (Section 6) considers and argues against: instead of
// extracting basic data patterns and comparing their highlights, apply a
// similarity measure (KL distance) directly to the raw data distributions of
// the HDS and cluster — clusters become commonness(es), outliers become
// exceptions. The paper (and its Appendix 9.2, via i³) holds that the
// pattern-based similarity is more robust because extracted patterns encode
// analysis semantics; BuildMetaInsightRaw makes that claim directly testable
// (see the categorization-robustness experiment).

// RawDistribution is one scope's raw data distribution within an HDS.
type RawDistribution struct {
	Scope  int // index into the HDS's Scopes
	Keys   []string
	Values []float64
}

// RawCategorization is the KL-clustering counterpart of a MetaInsight's
// commonness/exception split.
type RawCategorization struct {
	// CommonIdx and ExceptionIdx partition the input distributions.
	CommonIdx    []int
	ExceptionIdx []int
}

// The raw-distribution clustering's settings, i³'s (Appendix 9.2): package
// icube clusters with the same two KL values.
const (
	// KLRadius is the symmetric-KL radius (bits) within which two
	// distributions join the same cluster.
	KLRadius = 0.05
	// KLSmoothing is the additive KL smoothing.
	KLSmoothing = 1e-6
	// rawTau is the minimum cluster ratio for a commonness, mirroring the
	// MetaInsight threshold τ.
	rawTau = 0.5
)

// CategorizeRaw clusters raw distributions by symmetric KL distance around
// the medoid: the members within KLRadius of the medoid form the candidate
// commonness; if its ratio does not exceed τ = 0.5, no commonness exists and
// ok is false (mirroring Definition 3.5's CommSet ≠ ∅ requirement).
func CategorizeRaw(dists []RawDistribution) (RawCategorization, bool) {
	n := len(dists)
	if n < 2 {
		return RawCategorization{}, false
	}
	// Align distributions on the union of keys (missing keys are zeros),
	// then normalize: KL compares shapes, not magnitudes.
	keySet := map[string]int{}
	var keys []string
	for _, d := range dists {
		for _, k := range d.Keys {
			if _, ok := keySet[k]; !ok {
				keySet[k] = len(keys)
				keys = append(keys, k)
			}
		}
	}
	aligned := make([][]float64, n)
	for i, d := range dists {
		v := make([]float64, len(keys))
		for j, k := range d.Keys {
			val := d.Values[j]
			if val < 0 {
				val = 0 // KL is undefined for negative mass
			}
			v[keySet[k]] = val
		}
		aligned[i] = stats.Normalize(v)
	}

	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := stats.SymmetricKL(aligned[i], aligned[j], KLSmoothing)
			dist[i][j], dist[j][i] = d, d
		}
	}
	medoid, best := 0, 0.0
	for i := 0; i < n; i++ {
		total := 0.0
		for j := 0; j < n; j++ {
			total += dist[i][j]
		}
		if i == 0 || total < best {
			medoid, best = i, total
		}
	}
	var cat RawCategorization
	for i := 0; i < n; i++ {
		if dist[medoid][i] <= KLRadius {
			cat.CommonIdx = append(cat.CommonIdx, i)
		} else {
			cat.ExceptionIdx = append(cat.ExceptionIdx, i)
		}
	}
	if float64(len(cat.CommonIdx)) <= rawTau*float64(n) {
		return cat, false
	}
	return cat, true
}

// ExceptionSetEquals compares an exception index set against a ground-truth
// set.
func ExceptionSetEquals(got []int, want map[int]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, i := range got {
		if !want[i] {
			return false
		}
	}
	return true
}

// BuildPatternCategorization evaluates an HDP's scopes with the given
// pattern type and returns the Sim-based categorization directly from raw
// series, a convenience for head-to-head comparisons with CategorizeRaw on
// identical inputs: the built-in evaluation criteria, and the commonness
// threshold CategorizeRaw uses (τ = 0.5). temporal marks the breakdown kind.
func BuildPatternCategorization(dists []RawDistribution, t pattern.Type, temporal bool) (RawCategorization, bool) {

	// The Sim classes of the scopes where t holds, in first-seen order.
	type class struct {
		highlight pattern.Highlight
		members   []int
	}
	var classes []class
	var others []int
	for i, d := range dists {
		se := pattern.EvaluateAll(d.Keys, d.Values, temporal, pattern.Config{})
		tp, h := se.Induced(t)
		if tp != t {
			others = append(others, i)
			continue
		}
		c := 0
		for c < len(classes) && !h.Equal(classes[c].highlight) {
			c++
		}
		if c == len(classes) {
			classes = append(classes, class{highlight: h})
		}
		classes[c].members = append(classes[c].members, i)
	}
	var cat RawCategorization
	n := float64(len(dists))
	for _, c := range classes {
		if float64(len(c.members)) > rawTau*n {
			cat.CommonIdx = append(cat.CommonIdx, c.members...)
		} else {
			cat.ExceptionIdx = append(cat.ExceptionIdx, c.members...)
		}
	}
	cat.ExceptionIdx = append(cat.ExceptionIdx, others...)
	sort.Ints(cat.CommonIdx)
	sort.Ints(cat.ExceptionIdx)
	return cat, len(cat.CommonIdx) > 0
}
