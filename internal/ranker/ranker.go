// Package ranker implements MetaInsight's redundancy-aware top-k selection
// (Section 4.3): the total usefulness objective built on the
// inclusion-exclusion principle (Equation 19), the inter-MetaInsight overlap
// ratio of Appendix 9.4 (Equations 24-28), the second-order approximation
// (Equation 22) solved greedily — the paper's algorithm — and the two
// comparison algorithms of Table 4: the exact baseline and rank-by-score.
package ranker

import (
	"math"
	"slices"
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

// overlapRatio is the general-form r(I₁, …, I_p) of Equation 28 over the
// items idx: zero when they differ in extension strategy or pattern type,
// otherwise the strategy-specific weighted combination of Equations 25-27.
func (p *Pool) overlapRatio(idx []int) float64 {
	if len(idx) < 2 {
		return 1
	}
	a := &p.Items[idx[0]]
	sameExtDim, sameMeasure, sameBreakdown := true, true, true
	for _, i := range idx[1:] {
		b := &p.Items[i]
		if b.Kind != a.Kind || b.Type != a.Type {
			return 0
		}
		sameExtDim = sameExtDim && b.ExtDim == a.ExtDim
		sameMeasure = sameMeasure && b.Measure == a.Measure
		sameBreakdown = sameBreakdown && b.Breakdown == a.Breakdown
	}
	rsub := p.rootOverlapRatio(idx)

	switch a.Kind {
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

// rootOverlapRatio is SubspaceOverlapRatio of the items' HDS root subspaces
// (core.HDS.RootSubspace), read from their filter ids: a filter is common
// when every root holds the same (Dim, Value) pair.
func (p *Pool) rootOverlapRatio(idx []int) float64 {
	minSize := math.MaxInt
	for _, i := range idx {
		minSize = min(minSize, len(p.root(i)))
	}
	if minSize == 0 {
		return 1
	}
	common := 0
	for _, f := range p.root(idx[0]) {
		in := true
		for _, i := range idx[1:] {
			in = in && slices.Contains(p.root(i), f)
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

// overlap is Definition 4.4 over the items idx: |I₁ ∩ … ∩ I_p| =
// min(|I₁|, …, |I_p|) · r(I₁, …, I_p), where |I| is the MetaInsight's score
// (Definition 4.2).
func (p *Pool) overlap(idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	minScore := p.Items[idx[0]].Score
	for _, i := range idx[1:] {
		if s := p.Items[i].Score; s < minScore {
			minScore = s
		}
	}
	if len(idx) == 1 {
		return minScore
	}
	return minScore * p.overlapRatio(idx)
}

// TotalUseExact is Definition 4.3, the full inclusion-exclusion total
// usefulness |I₁ ∪ … ∪ I_p|. Cost is Θ(2^p · p); it backs the exact ranking
// baseline of Table 4 and is only practical for small p.
func TotalUseExact(mis []*core.MetaInsight) float64 {
	return poolOf(mis).totalUseExact(all(len(mis)))
}

// totalUseExact is TotalUseExact of the items idx.
func (p *Pool) totalUseExact(idx []int) float64 {
	n := len(idx)
	if n == 0 {
		return 0
	}
	if n > 25 {
		panic("ranker: TotalUseExact is exponential; refusing p > 25")
	}
	total := 0.0
	subset := make([]int, 0, n)
	for mask := 1; mask < 1<<n; mask++ {
		subset = subset[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, idx[i])
			}
		}
		term := p.overlap(subset)
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
	p := poolOf(mis)
	total := 0.0
	for _, it := range p.Items {
		total += it.Score
	}
	for i := range p.Items {
		for j := i + 1; j < len(p.Items); j++ {
			pair := [2]int{i, j}
			total -= p.overlap(pair[:])
		}
	}
	return total
}

// sortByScore returns candidates sorted by score descending with a
// deterministic key tie-break, without modifying the input: the order every
// ranking algorithm reads its pool in.
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
	sorted := sortByScore(cands)
	idx, st := poolOf(sorted).Greedy(k)
	return pick(sorted, idx), st
}

// Greedy is the greedy selection over the pool's items, in their order: it
// returns the selected items' indices in the order it selected them.
func (p *Pool) Greedy(k int) ([]int, SelectionStats) {
	n := len(p.Items)
	st := SelectionStats{Pool: n}
	if k <= 0 || n == 0 {
		return nil, st
	}
	selected := []int{0}
	p.used = append(p.used[:0], make([]bool, n)...)
	p.used[0] = true
	// penalty[i] accumulates Σ_{J ∈ S} |candᵢ ∩ J| incrementally, keeping
	// each iteration O(n) overlap computations.
	p.penalty = append(p.penalty[:0], make([]float64, n)...)
	last := 0
	for len(selected) < k && len(selected) < n {
		bestIdx := -1
		bestGain := math.Inf(-1)
		for i := range p.Items {
			if p.used[i] {
				continue
			}
			pair := [2]int{i, last}
			p.penalty[i] += p.overlap(pair[:])
			st.OverlapEvals++
			gain := p.Items[i].Score - p.penalty[i]
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		last = bestIdx
		p.used[last] = true
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
	p := poolOf(pool)
	best := make([]int, 0, k)
	bestUse := math.Inf(-1)
	current := make([]int, 0, k)
	var recurse func(start int)
	recurse = func(start int) {
		if len(current) == k {
			use := p.totalUseExact(current)
			if use > bestUse {
				bestUse = use
				best = append(best[:0], current...)
			}
			return
		}
		// Not enough remaining candidates to fill the subset.
		need := k - len(current)
		for i := start; i+need <= len(pool); i++ {
			current = append(current, i)
			recurse(i + 1)
			current = current[:len(current)-1]
		}
	}
	recurse(0)
	return pick(pool, best)
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
