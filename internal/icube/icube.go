// Package icube reimplements the analysis core of i³ ("eye-cube", Sarawagi
// et al.), the OLAP comparison system of the paper's Appendix 9.2, including
// the refinements the paper made for a fair comparison: full automation over
// data scopes, query reuse through the shared engine cache, and a ranking
// module (the original i³ has none).
//
// An i³ result is a RELAX-style subspace-extended comparison whose breakdown
// holds exactly two values: for every member x of an extension dimension,
// the 2-point raw distribution (m(x, v1), m(x, v2)) is normalized, and the
// distributions are clustered by symmetric KL distance — clusters become the
// commonness, outliers the exceptions. The two failure modes the appendix
// demonstrates fall out of this design: (1) KL ignores analysis semantics,
// so exceptions are miscategorized relative to a dominance-based reading;
// (2) pairs involving an identically-zero column produce degenerate,
// identical distributions that rank at the top while carrying no
// information (trivial results).
package icube

import (
	"fmt"
	"sort"

	"metainsight/internal/core"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/stats"
)

// The comparison's member bounds, fixed like its KL settings (the raw
// clustering's core.KLRadius and core.KLSmoothing).
const (
	// maxMembers skips extension dimensions with more members (chart
	// readability, mirroring the breakdown-cardinality cap elsewhere).
	maxMembers = 30
	// minMembers skips comparisons with fewer extended members.
	minMembers = 4
)

// Member is one extended subspace in a result: its name on the extension
// dimension and its normalized 2-point distribution over (V1, V2).
type Member struct {
	Name string
	P    [2]float64 // normalized shares of V1 and V2
	Raw  [2]float64 // raw aggregates
}

// Result is one i³ output: a pairwise-breakdown comparison extended over one
// dimension, categorized by KL clustering.
type Result struct {
	Breakdown string // the dimension supplying the two compared values
	V1, V2    string
	ExtDim    string // the subspace-extending dimension
	Members   []Member

	// CommonIdx / ExceptionIdx index Members per the KL clustering.
	CommonIdx    []int
	ExceptionIdx []int
	// Score ranks results by the generality (coverage) of the KL cluster.
	// Degenerate comparisons score highest — deliberately reproducing the
	// appendix's triviality finding.
	Score float64
}

// Key identifies the result.
func (r *Result) Key() string {
	return fmt.Sprintf("%s|%s|%s|%s", r.Breakdown, r.V1, r.V2, r.ExtDim)
}

// Trivial reports whether the comparison is degenerate in the appendix's
// sense: one of the two compared values has (near-)zero aggregate for every
// member, so all distributions are identical point masses.
func (r *Result) Trivial() bool {
	if len(r.Members) == 0 {
		return false
	}
	allV1Zero, allV2Zero := true, true
	for _, m := range r.Members {
		if m.Raw[0] > 1e-9 {
			allV1Zero = false
		}
		if m.Raw[1] > 1e-9 {
			allV2Zero = false
		}
	}
	return allV1Zero || allV2Zero
}

// ReferenceExceptions returns the exception set a dominance-based
// ("analysis semantics") reading produces: each member is labeled by which
// compared value dominates its distribution (or "balanced"), the majority
// label forms the commonness and every other member is an exception. This
// is the comparator the appendix scores i³'s KL categorization against.
func (r *Result) ReferenceExceptions() []int {
	labels := make([]string, len(r.Members))
	counts := map[string]int{}
	for i, m := range r.Members {
		switch {
		case m.P[0] > 0.6:
			labels[i] = "v1"
		case m.P[0] < 0.4:
			labels[i] = "v2"
		default:
			labels[i] = "balanced"
		}
		counts[labels[i]]++
	}
	majority, best := "", -1
	for l, c := range counts {
		if c > best || (c == best && l < majority) {
			majority, best = l, c
		}
	}
	var exc []int
	for i, l := range labels {
		if l != majority {
			exc = append(exc, i)
		}
	}
	return exc
}

// MiscategorizedAgainstReference reports whether the KL-based exception set
// differs from the dominance-based one.
func (r *Result) MiscategorizedAgainstReference() bool {
	ref := r.ReferenceExceptions()
	if len(ref) != len(r.ExceptionIdx) {
		return true
	}
	set := make(map[int]bool, len(ref))
	for _, i := range ref {
		set[i] = true
	}
	for _, i := range r.ExceptionIdx {
		if !set[i] {
			return true
		}
	}
	return false
}

// Mine runs i³ over every (breakdown, value pair, extension dimension)
// combination at subspace level 0 (the appendix restricts the search space
// the same way), comparing measure and ranking results by score descending.
func Mine(eng *engine.Engine, measure model.Measure) []*Result {
	tab := eng.Table()
	var results []*Result
	dims := tab.DimensionNames()
	for _, bd := range dims {
		bcol := tab.Dimension(bd)
		if bcol.Cardinality() < 2 || bcol.Cardinality() > maxMembers {
			continue
		}
		for _, ext := range dims {
			if ext == bd {
				continue
			}
			ecol := tab.Dimension(ext)
			if ecol.Cardinality() < minMembers || ecol.Cardinality() > maxMembers {
				continue
			}
			// One unit per breakdown value serves every pair: the 2-point
			// distributions are assembled from per-value series over ext.
			series := make(map[string]map[string]float64, bcol.Cardinality())
			for _, v := range bcol.Domain() {
				ds := model.DataScope{
					Subspace:  model.NewSubspace(model.Filter{Dim: bd, Value: v}),
					Breakdown: ext,
					Measure:   measure,
				}
				s, err := eng.BasicQuery(ds)
				if err != nil {
					continue
				}
				byKey := make(map[string]float64, s.Len())
				for i, k := range s.Keys {
					byKey[k] = s.Values[i]
				}
				series[v] = byKey
			}
			domain := bcol.Domain()
			for i := 0; i < len(domain); i++ {
				for j := i + 1; j < len(domain); j++ {
					if r := compare(domain[i], domain[j], bd, ext, ecol.Domain(), series); r != nil {
						results = append(results, r)
					}
				}
			}
		}
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Key() < results[j].Key()
	})
	return results
}

// compare assembles and categorizes one pairwise comparison.
func compare(v1, v2, bd, ext string, extDomain []string,
	series map[string]map[string]float64) *Result {

	s1, s2 := series[v1], series[v2]
	if s1 == nil || s2 == nil {
		return nil
	}
	r := &Result{Breakdown: bd, V1: v1, V2: v2, ExtDim: ext}
	for _, x := range extDomain {
		a, oka := s1[x]
		b, okb := s2[x]
		if !oka && !okb {
			continue
		}
		if a < 0 || b < 0 {
			// KL is undefined for negative aggregates — the appendix notes
			// this as one of i³'s limitations; such members are dropped.
			continue
		}
		m := Member{Name: x, Raw: [2]float64{a, b}}
		total := a + b
		if total > 0 {
			m.P = [2]float64{a / total, b / total}
		} else {
			m.P = [2]float64{0.5, 0.5}
		}
		r.Members = append(r.Members, m)
	}
	if len(r.Members) < minMembers {
		return nil
	}

	// Medoid clustering by symmetric KL: the member minimizing total
	// distance anchors the commonness; everything within core.KLRadius of
	// it joins, the rest are exceptions.
	n := len(r.Members)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := stats.SymmetricKL(r.Members[i].P[:], r.Members[j].P[:], core.KLSmoothing)
			dist[i][j], dist[j][i] = d, d
		}
	}
	medoid, bestTotal := 0, 0.0
	for i := 0; i < n; i++ {
		total := 0.0
		for j := 0; j < n; j++ {
			total += dist[i][j]
		}
		if i == 0 || total < bestTotal {
			medoid, bestTotal = i, total
		}
	}
	for i := 0; i < n; i++ {
		if dist[medoid][i] <= core.KLRadius {
			r.CommonIdx = append(r.CommonIdx, i)
		} else {
			r.ExceptionIdx = append(r.ExceptionIdx, i)
		}
	}
	// The refined ranking scores a result by the generality of its cluster
	// (coverage). Note what it does NOT consider — impact or actionability:
	// degenerate comparisons (identical point-mass distributions from a
	// zero column) have coverage 1 and rank at the very top, which is
	// precisely the appendix's triviality finding.
	r.Score = float64(len(r.CommonIdx)) / float64(n)
	return r
}
