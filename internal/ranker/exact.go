package ranker

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"metainsight/internal/core"
	"metainsight/internal/model"
)

// The inter-MetaInsight overlap ratio (Equation 28) is zero whenever two
// MetaInsights differ in extension strategy or pattern type. TotalUse
// therefore decomposes additively over (strategy, type) groups:
//
//	TotalUse(S) = Σ_g TotalUse(S ∩ g)
//
// which turns the exponential exact ranking into per-group subset dynamic
// programming followed by a knapsack over group allocations. This file
// implements that decomposition: an exact optimum that is practical at the
// paper's k = 10 over the full candidate set (the paper's naive baseline
// takes minutes to hours), plus an exact-marginal variant of the greedy
// algorithm.

// groupKey buckets an item by the fields outside of which the overlap
// ratio vanishes.
func (p *Pool) groupKey(i int) string {
	it := &p.Items[i]
	return it.Kind.String() + "|" + it.Type.String()
}

// groups partitions the pool's items into overlap groups, in group-key
// order, each in pool order (the ranking order) and truncated to
// maxGroupSize (0 = no truncation; the subset DP is 2^n per group, so sizes
// beyond ~20 are impractical).
func (p *Pool) groups(maxGroupSize int) [][]int {
	byKey := map[string][]int{}
	var order []string
	for i := range p.Items {
		k := p.groupKey(i)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	sort.Strings(order)
	groups := make([][]int, 0, len(order))
	for _, k := range order {
		g := byKey[k]
		if maxGroupSize > 0 && len(g) > maxGroupSize {
			g = g[:maxGroupSize]
		}
		groups = append(groups, g)
	}
	return groups
}

// groupTotalUse computes TotalUse over all 2^n subsets of one group via a
// subset-sum-over-subsets (zeta) transform of the signed overlap terms:
// TotalUse[mask] = Σ_{∅≠U⊆mask} (−1)^{|U|+1}·Overlap(U). Overlap values for
// every mask come from incremental DP on min-score, filter-set intersection
// and the identity indicators.
func (p *Pool) groupTotalUse(g []int) []float64 {
	n := len(g)
	size := 1 << n
	// Encode each member's root filters as bits over the union of the
	// group's filters (≤ n·MaxSubspaceFilters distinct, and n ≤ ~20, so a
	// uint64 per word-chunk suffices for realistic depth-3 subspaces; fall
	// back to 128 bits via two words if needed).
	filterIDs := map[uint64]int{}
	memberBits := make([][2]uint64, n)
	filterCount := make([]int, n)
	for i, m := range g {
		for _, f := range p.root(m) {
			id, ok := filterIDs[f]
			if !ok {
				id = len(filterIDs)
				filterIDs[f] = id
			}
			if id < 128 {
				memberBits[i][id/64] |= 1 << (id % 64)
			}
			filterCount[i]++
		}
	}
	item := func(i int) *Item { return &p.Items[g[i]] }

	// Per-mask incremental state.
	minScore := make([]float64, size)
	interBits := make([][2]uint64, size)
	minFilters := make([]int, size)
	sameExt := make([]bool, size)
	sameMea := make([]bool, size)
	sameBrk := make([]bool, size)
	first := make([]int, size) // lowest member index in mask
	total := make([]float64, size)

	kind := item(0).Kind
	for mask := 1; mask < size; mask++ {
		low := bits.TrailingZeros(uint(mask))
		rest := mask &^ (1 << low)
		if rest == 0 {
			minScore[mask] = item(low).Score
			interBits[mask] = memberBits[low]
			minFilters[mask] = filterCount[low]
			sameExt[mask], sameMea[mask], sameBrk[mask] = true, true, true
			first[mask] = low
			// h(singleton) = +score; zeta accumulation below adds it in.
			total[mask] = item(low).Score
			continue
		}
		minScore[mask] = math.Min(minScore[rest], item(low).Score)
		interBits[mask][0] = interBits[rest][0] & memberBits[low][0]
		interBits[mask][1] = interBits[rest][1] & memberBits[low][1]
		if filterCount[low] < minFilters[rest] {
			minFilters[mask] = filterCount[low]
		} else {
			minFilters[mask] = minFilters[rest]
		}
		f := first[rest]
		first[mask] = low // low < f always since low is the lowest bit
		sameExt[mask] = sameExt[rest] && item(low).ExtDim == item(f).ExtDim
		sameMea[mask] = sameMea[rest] && item(low).Measure == item(f).Measure
		sameBrk[mask] = sameBrk[rest] && item(low).Breakdown == item(f).Breakdown

		// Overlap(mask) with the strategy-specific ratio of Equations 25-27.
		rsub := 1.0
		if minFilters[mask] > 0 {
			inter := bits.OnesCount64(interBits[mask][0]) + bits.OnesCount64(interBits[mask][1])
			rsub = float64(inter) / float64(minFilters[mask])
		}
		var r float64
		switch kind {
		case model.ExtendSubspace:
			r = w11*rsub + w12*ind(sameExt[mask]) + w13*ind(sameMea[mask]) + w14*ind(sameBrk[mask])
		case model.ExtendMeasure:
			r = w21*rsub + w22*ind(sameBrk[mask])
		default:
			r = w31*rsub + w32*ind(sameMea[mask])
		}
		sign := 1.0
		if bits.OnesCount(uint(mask))%2 == 0 {
			sign = -1
		}
		total[mask] = sign * minScore[mask] * r
	}

	// Zeta transform: total[mask] becomes Σ_{U ⊆ mask} h[U].
	for i := 0; i < n; i++ {
		bit := 1 << i
		for mask := 0; mask < size; mask++ {
			if mask&bit != 0 {
				total[mask] += total[mask^bit]
			}
		}
	}
	return total
}

// ExactTopKGrouped computes the exact optimum of Equation 21 by decomposing
// TotalUse over (strategy, type) groups: per-group subset DP followed by a
// knapsack allocating the k slots across groups. Groups larger than
// maxGroupSize (default 18 when 0) are truncated to their top members by
// score — the only approximation, and one that only matters if the optimum
// would dip below a group's top-maxGroupSize scores.
func ExactTopKGrouped(cands []*core.MetaInsight, k int, maxGroupSize int) []*core.MetaInsight {
	if maxGroupSize <= 0 {
		maxGroupSize = 18
	}
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	sorted := sortByScore(cands)
	p := poolOf(sorted)
	groups := p.groups(maxGroupSize)

	type groupPlan struct {
		members  []int
		bestUse  []float64 // best TotalUse per subset size
		bestMask []int
	}
	plans := make([]groupPlan, len(groups))
	for gi, g := range groups {
		n := len(g)
		tu := p.groupTotalUse(g)
		maxSize := n
		if maxSize > k {
			maxSize = k
		}
		best := make([]float64, maxSize+1)
		bestMask := make([]int, maxSize+1)
		for s := 1; s <= maxSize; s++ {
			best[s] = math.Inf(-1)
		}
		for mask := 1; mask < 1<<n; mask++ {
			s := bits.OnesCount(uint(mask))
			if s > maxSize {
				continue
			}
			if tu[mask] > best[s] {
				best[s] = tu[mask]
				bestMask[s] = mask
			}
		}
		plans[gi] = groupPlan{members: g, bestUse: best, bestMask: bestMask}
	}

	// Knapsack over groups: dp[j] = best total use with j slots allocated.
	const neg = math.MaxFloat64
	dp := make([]float64, k+1)
	choice := make([][]int, len(plans))
	for i := range dp {
		dp[i] = -neg
	}
	dp[0] = 0
	for gi, plan := range plans {
		choice[gi] = make([]int, k+1)
		next := make([]float64, k+1)
		take := make([]int, k+1)
		for j := 0; j <= k; j++ {
			next[j] = -neg
			for s := 0; s <= j && s < len(plan.bestUse); s++ {
				if dp[j-s] == -neg || math.IsInf(plan.bestUse[s], -1) {
					continue
				}
				if v := dp[j-s] + plan.bestUse[s]; v > next[j] {
					next[j] = v
					take[j] = s
				}
			}
		}
		dp = next
		choice[gi] = take
	}
	// The optimum may use fewer than k slots only when candidates run out;
	// otherwise adding any MetaInsight never decreases TotalUse, so take the
	// best j ≤ k.
	bestJ := 0
	for j := 1; j <= k; j++ {
		if dp[j] != -neg && dp[j] >= dp[bestJ] {
			bestJ = j
		}
	}
	// Reconstruct.
	var out []int
	j := bestJ
	for gi := len(plans) - 1; gi >= 0; gi-- {
		s := choice[gi][j]
		if s > 0 {
			mask := plans[gi].bestMask[s]
			for i := 0; i < len(plans[gi].members); i++ {
				if mask&(1<<i) != 0 {
					out = append(out, plans[gi].members[i])
				}
			}
		}
		j -= s
	}
	slices.Sort(out) // pool order is the ranking order
	return pick(sorted, out)
}

// GreedyExact is the exact-marginal variant of the greedy ranking: instead
// of the second-order approximation, each step adds the candidate with the
// largest true inclusion-exclusion gain. The group decomposition keeps each
// marginal evaluation at 2^{|S ∩ group|}, so the algorithm stays fast. This
// extension is evaluated against the paper's second-order greedy in the
// Table 4 benchmarks.
func GreedyExact(cands []*core.MetaInsight, k int) []*core.MetaInsight {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	sorted := sortByScore(cands)
	p := poolOf(sorted)
	selectedByGroup := map[string][]int{}
	groupUse := map[string]float64{}
	var selected []int
	used := make([]bool, len(sorted))
	for len(selected) < k && len(selected) < len(sorted) {
		bestIdx := -1
		bestGain := math.Inf(-1)
		for i := range p.Items {
			if used[i] {
				continue
			}
			gk := p.groupKey(i)
			members := selectedByGroup[gk]
			if len(members) >= 20 {
				continue // keep the exact marginal tractable
			}
			gain := p.totalUseExact(append(members[:len(members):len(members)], i)) - groupUse[gk]
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		gk := p.groupKey(bestIdx)
		selectedByGroup[gk] = append(selectedByGroup[gk], bestIdx)
		groupUse[gk] += bestGain
		used[bestIdx] = true
		selected = append(selected, bestIdx)
	}
	slices.Sort(selected) // pool order is the ranking order
	return pick(sorted, selected)
}
