// Package ranker implements MetaInsight's redundancy-aware top-k selection
// (Section 4.3): the total usefulness objective built on the
// inclusion-exclusion principle (Equation 19), the inter-MetaInsight overlap
// ratio of Appendix 9.4 (Equations 24-28), the second-order approximation
// (Equation 22) solved greedily — the paper's algorithm — and the two
// comparison algorithms of Table 4: the exact baseline and rank-by-score.
package ranker

import (
	"math"
	"sort"

	"metainsight/internal/core"
	"metainsight/internal/model"
)

// The weights of the per-strategy overlap ratios of Equations 25-27. Within
// each strategy they sum to 1, so the ratio stays in [0,1]; the shared
// subspace factor weighs highest and the identity indicators split the rest.
const (
	// Subspace-extended HDPs (Equation 25):
	// r_s = w11·r_sub + w12·1_i + w13·1_m + w14·1_b.
	w11, w12, w13, w14 = 0.4, 0.2, 0.2, 0.2
	// Measure-extended HDPs (Equation 26): r_m = w21·r_sub + w22·1_b.
	w21, w22 = 0.6, 0.4
	// Breakdown-extended HDPs (Equation 27): r_b = w31·r_sub + w32·1_m.
	w31, w32 = 0.6, 0.4
)

// SubspaceOverlapRatio is Definition 9.1, the generalized overlap
// coefficient over the non-empty filter sets of the HDS root subspaces:
// |s₁ ∩ … ∩ s_p| / min|sᵢ|. When the smallest filter set is empty, the empty
// set is contained in every other, so the ratio is 1. (OverlapRatio reads it
// in place from the anchors.)
func SubspaceOverlapRatio(subs []model.Subspace) float64 {
	if len(subs) == 0 {
		return 0
	}
	minSize := math.MaxInt
	for _, s := range subs {
		if s.Len() < minSize {
			minSize = s.Len()
		}
	}
	if minSize == 0 {
		return 1
	}
	inter := subs[0].FilterSet()
	for _, s := range subs[1:] {
		next := s.FilterSet()
		for f := range inter {
			if !next[f] {
				delete(inter, f)
			}
		}
	}
	return float64(len(inter)) / float64(minSize)
}

// OverlapRatio is the general-form r(I₁, …, I_p) of Equation 28: zero when
// the MetaInsights differ in extension strategy or pattern type, otherwise
// the strategy-specific weighted combination of Equations 25-27.
func OverlapRatio(mis []*core.MetaInsight) float64 {
	if len(mis) < 2 {
		return 1
	}
	h0 := &mis[0].HDP.HDS
	sameExtDim, sameMeasure, sameBreakdown := true, true, true
	for _, mi := range mis[1:] {
		h := &mi.HDP.HDS
		if h.Kind != h0.Kind || mi.HDP.Type != mis[0].HDP.Type {
			return 0
		}
		sameExtDim = sameExtDim && h.ExtDim == h0.ExtDim
		sameMeasure = sameMeasure && h.Anchor.Measure == h0.Anchor.Measure
		sameBreakdown = sameBreakdown && h.Anchor.Breakdown == h0.Anchor.Breakdown
	}
	rsub := rootOverlapRatio(mis)

	switch h0.Kind {
	case model.ExtendSubspace:
		return w11*rsub + w12*ind(sameExtDim) + w13*ind(sameMeasure) + w14*ind(sameBreakdown)
	case model.ExtendMeasure:
		return w21*rsub + w22*ind(sameBreakdown)
	case model.ExtendBreakdown:
		return w31*rsub + w32*ind(sameMeasure)
	default:
		return 0
	}
}

// rootOverlapRatio is SubspaceOverlapRatio of the MetaInsights' HDS root
// subspaces (core.HDS.RootSubspace), read in their anchors: a filter is
// common when every root holds the same (Dim, Value) pair.
func rootOverlapRatio(mis []*core.MetaInsight) float64 {
	minSize := math.MaxInt
	for _, mi := range mis {
		h := &mi.HDP.HDS
		n := h.Anchor.Subspace.Len()
		if h.Kind == model.ExtendSubspace && h.Anchor.Subspace.Has(h.ExtDim) {
			n--
		}
		minSize = min(minSize, n)
	}
	if minSize == 0 {
		return 1
	}
	common := 0
	for _, f := range mis[0].HDP.HDS.Anchor.Subspace {
		in := true
		for _, mi := range mis {
			h := &mi.HDP.HDS
			v, ok := h.Anchor.Subspace.Get(f.Dim)
			in = in && ok && v == f.Value && !(h.Kind == model.ExtendSubspace && f.Dim == h.ExtDim)
		}
		if in {
			common++
		}
	}
	return float64(common) / float64(minSize)
}

func ind(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Overlap is Definition 4.4: |I₁ ∩ … ∩ I_p| = min(|I₁|, …, |I_p|) ·
// r(I₁, …, I_p), where |I| is the MetaInsight's score (Definition 4.2).
func Overlap(mis []*core.MetaInsight) float64 {
	if len(mis) == 0 {
		return 0
	}
	minScore := mis[0].Score
	for _, mi := range mis[1:] {
		if mi.Score < minScore {
			minScore = mi.Score
		}
	}
	if len(mis) == 1 {
		return minScore
	}
	return minScore * OverlapRatio(mis)
}

// TotalUseExact is Definition 4.3, the full inclusion-exclusion total
// usefulness |I₁ ∪ … ∪ I_p|. Cost is Θ(2^p · p); it backs the exact ranking
// baseline of Table 4 and is only practical for small p.
func TotalUseExact(mis []*core.MetaInsight) float64 {
	p := len(mis)
	if p == 0 {
		return 0
	}
	if p > 25 {
		panic("ranker: TotalUseExact is exponential; refusing p > 25")
	}
	total := 0.0
	subset := make([]*core.MetaInsight, 0, p)
	for mask := 1; mask < 1<<p; mask++ {
		subset = subset[:0]
		for i := 0; i < p; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, mis[i])
			}
		}
		term := Overlap(subset)
		if len(subset)%2 == 1 {
			total += term
		} else {
			total -= term
		}
	}
	return total
}

// TotalUseApprox is the second-order approximation of Equation 22:
// Σ|Iᵢ| − Σ_{i<j} |Iᵢ ∩ Iⱼ|.
func TotalUseApprox(mis []*core.MetaInsight) float64 {
	total := 0.0
	for _, mi := range mis {
		total += mi.Score
	}
	for i := 0; i < len(mis); i++ {
		for j := i + 1; j < len(mis); j++ {
			pair := [2]*core.MetaInsight{mis[i], mis[j]}
			total -= Overlap(pair[:])
		}
	}
	return total
}

// sortByScore returns candidates sorted by score descending with a
// deterministic key tie-break, without modifying the input.
func sortByScore(cands []*core.MetaInsight) []*core.MetaInsight {
	out := append([]*core.MetaInsight(nil), cands...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// RankByScore is the first-order baseline of Table 4: the top-k candidates
// by individual score, ignoring redundancy.
func RankByScore(cands []*core.MetaInsight, k int) []*core.MetaInsight {
	out := sortByScore(cands)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// SelectionStats reports the work one Greedy selection performed, for the
// observability layer: pool and selection sizes plus the number of pairwise
// Overlap evaluations the incremental-penalty loop computed.
type SelectionStats struct {
	Pool         int
	Selected     int
	OverlapEvals int64
}

// Greedy is the paper's ranking algorithm: second-order approximation solved
// greedily. The selection starts from the highest-scoring MetaInsight; each
// iteration adds the candidate with the largest marginal gain
// |I| − Σ_{J ∈ S} |I ∩ J| until k MetaInsights are selected.
func Greedy(cands []*core.MetaInsight, k int) []*core.MetaInsight {
	out, _ := GreedyStats(cands, k)
	return out
}

// GreedyStats is Greedy plus a SelectionStats report of the work performed.
func GreedyStats(cands []*core.MetaInsight, k int) ([]*core.MetaInsight, SelectionStats) {
	if k <= 0 || len(cands) == 0 {
		return nil, SelectionStats{Pool: len(cands)}
	}
	st := SelectionStats{Pool: len(cands)}
	pool := sortByScore(cands)
	selected := []*core.MetaInsight{pool[0]}
	used := map[*core.MetaInsight]bool{pool[0]: true}
	// penalty[i] accumulates Σ_{J ∈ S} |candᵢ ∩ J| incrementally, keeping
	// each iteration O(n) overlap computations.
	penalty := make([]float64, len(pool))
	last := pool[0]
	for len(selected) < k && len(selected) < len(pool) {
		bestIdx := -1
		bestGain := math.Inf(-1)
		for i, c := range pool {
			if used[c] {
				continue
			}
			pair := [2]*core.MetaInsight{c, last}
			penalty[i] += Overlap(pair[:])
			st.OverlapEvals++
			gain := c.Score - penalty[i]
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		last = pool[bestIdx]
		used[last] = true
		selected = append(selected, last)
	}
	st.Selected = len(selected)
	return selected, st
}

// ExactTopK is the standalone exact baseline of Table 4: it enumerates all
// k-subsets of the candidate pool and returns the one maximizing the full
// inclusion-exclusion TotalUse (Equation 21 solved exactly). The cost is
// C(N, k)·2^k over N candidates — the paper's baseline takes minutes to
// hours — so callers cut the pool first (RankByScore).
func ExactTopK(cands []*core.MetaInsight, k int) []*core.MetaInsight {
	pool := sortByScore(cands)
	if k >= len(pool) {
		return pool
	}
	best := make([]*core.MetaInsight, 0, k)
	bestUse := math.Inf(-1)
	current := make([]*core.MetaInsight, 0, k)
	var recurse func(start int)
	recurse = func(start int) {
		if len(current) == k {
			use := TotalUseExact(current)
			if use > bestUse {
				bestUse = use
				best = append(best[:0], current...)
			}
			return
		}
		// Not enough remaining candidates to fill the subset.
		need := k - len(current)
		for i := start; i+need <= len(pool); i++ {
			current = append(current, pool[i])
			recurse(i + 1)
			current = current[:len(current)-1]
		}
	}
	recurse(0)
	return best
}

// Precision is the top-k set agreement used in Table 4: |golden ∩ got| / |golden|,
// intersecting by MetaInsight identity keys.
func Precision(golden, got []*core.MetaInsight) float64 {
	if len(golden) == 0 {
		return 0
	}
	keys := make(map[string]bool, len(golden))
	for _, mi := range golden {
		keys[mi.Key()] = true
	}
	hit := 0
	for _, mi := range got {
		if keys[mi.Key()] {
			hit++
		}
	}
	return float64(hit) / float64(len(golden))
}
