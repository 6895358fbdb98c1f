package ranker

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"metainsight/internal/core"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

// mkMI builds a minimal MetaInsight with the given identity-relevant fields.
func mkMI(score float64, kind model.ExtensionKind, ptype pattern.Type,
	root model.Subspace, extDim, breakdown, measureCol string) *core.MetaInsight {

	anchor := model.DataScope{
		Subspace:  root,
		Breakdown: breakdown,
		Measure:   model.Sum(measureCol),
	}
	if kind == model.ExtendSubspace {
		anchor.Subspace = root.With(extDim, "v0")
	}
	hds := core.HDS{Kind: kind, Anchor: anchor, ExtDim: extDim}
	hdp := &core.HDP{HDS: hds, Type: ptype}
	return &core.MetaInsight{HDP: hdp, Score: score}
}

func sub(filters ...model.Filter) model.Subspace { return model.NewSubspace(filters...) }

// OverlapRatio is Equation 28 over MetaInsights, through the adapter every
// ranking algorithm reads them by.
func OverlapRatio(mis []*core.MetaInsight) float64 { return poolOf(mis).overlapRatio(all(len(mis))) }

// Overlap is Definition 4.4 over MetaInsights, through the same adapter.
func Overlap(mis []*core.MetaInsight) float64 { return poolOf(mis).overlap(all(len(mis))) }

func TestSubspaceOverlapRatio(t *testing.T) {
	a := sub(model.Filter{Dim: "City", Value: "LA"}, model.Filter{Dim: "Style", Value: "2S"})
	b := sub(model.Filter{Dim: "City", Value: "LA"})
	c := sub(model.Filter{Dim: "City", Value: "SF"})
	if r := SubspaceOverlapRatio([]model.Subspace{a, b}); r != 1 {
		t.Errorf("contained subspace ratio = %v, want 1", r)
	}
	if r := SubspaceOverlapRatio([]model.Subspace{a, c}); r != 0 {
		t.Errorf("disjoint ratio = %v, want 0", r)
	}
	if r := SubspaceOverlapRatio([]model.Subspace{a, a}); r != 1 {
		t.Errorf("self ratio = %v", r)
	}
	if r := SubspaceOverlapRatio([]model.Subspace{a, model.EmptySubspace}); r != 1 {
		t.Errorf("empty-root ratio = %v, want 1 (containment)", r)
	}
	// Three-way: intersection {City=LA} over min size 2.
	d := sub(model.Filter{Dim: "City", Value: "LA"}, model.Filter{Dim: "Month", Value: "Apr"})
	if r := SubspaceOverlapRatio([]model.Subspace{a, d, a}); r != 0.5 {
		t.Errorf("three-way ratio = %v, want 0.5", r)
	}
}

// TestOverlapComparesFilterPairs plants two filters whose "Dim=Value"
// strings collide: dimension "a" at value "b=c" and dimension "a=b" at value
// "c". They are different filters, so two roots that hold one each share
// nothing, in Definition 9.1 as stated and in OverlapRatio.
func TestOverlapComparesFilterPairs(t *testing.T) {
	x := sub(model.Filter{Dim: "a", Value: "b=c"})
	y := sub(model.Filter{Dim: "a=b", Value: "c"})
	if r := SubspaceOverlapRatio([]model.Subspace{x, y}); r != 0 {
		t.Errorf("SubspaceOverlapRatio(a=(b=c), (a=b)=c) = %v, want 0", r)
	}
	p := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality, x, "City", "Month", "Sales")
	q := mkMI(0.8, model.ExtendSubspace, pattern.Unimodality, y, "City", "Month", "Sales")
	want := w11*0 + w12*1 + w13*1 + w14*1
	if r := OverlapRatio([]*core.MetaInsight{p, q}); math.Abs(r-want) > 1e-12 {
		t.Errorf("OverlapRatio = %v, want %v: the colliding filters counted as common", r, want)
	}
}

// TestRootOverlapMatchesDefinition holds the subspace factor OverlapRatio
// reads from the items' root filter ids equal to Definition 9.1 as stated —
// SubspaceOverlapRatio over the built root subspaces — on every pair and
// triple of random candidates, and holds the overlap of a pair, as Greedy
// computes it, to no allocation.
func TestRootOverlapMatchesDefinition(t *testing.T) {
	cands := randomCandidates(7, 18)
	p := poolOf(cands)
	roots := func(idx ...int) []model.Subspace {
		out := make([]model.Subspace, len(idx))
		for i, j := range idx {
			out[i] = cands[j].HDP.HDS.RootSubspace()
		}
		return out
	}
	for a := range cands {
		for b := range cands {
			if got, want := p.rootOverlapRatio([]int{a, b}), SubspaceOverlapRatio(roots(a, b)); got != want {
				t.Fatalf("pair %s, %s: %v, definition %v", cands[a].Key(), cands[b].Key(), got, want)
			}
			for c := range cands {
				if got, want := p.rootOverlapRatio([]int{a, b, c}), SubspaceOverlapRatio(roots(a, b, c)); got != want {
					t.Fatalf("triple %s, %s, %s: %v, definition %v", cands[a].Key(), cands[b].Key(), cands[c].Key(), got, want)
				}
			}
		}
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		pair := [2]int{0, 1}
		sink += p.overlap(pair[:])
	}); n != 0 {
		t.Errorf("the overlap of a pair allocates %.0f times", n)
	}
}

func TestOverlapRatioCrossStrategyAndType(t *testing.T) {
	a := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	b := mkMI(0.8, model.ExtendMeasure, pattern.Unimodality, sub(), "", "Month", "Sales")
	c := mkMI(0.8, model.ExtendSubspace, pattern.Trend, sub(), "City", "Month", "Sales")
	if r := OverlapRatio([]*core.MetaInsight{a, b}); r != 0 {
		t.Errorf("cross-strategy overlap = %v (Cond of Equation 28)", r)
	}
	if r := OverlapRatio([]*core.MetaInsight{a, c}); r != 0 {
		t.Errorf("cross-type overlap = %v", r)
	}
}

func TestOverlapRatioIdenticalIsOne(t *testing.T) {
	a := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality,
		sub(model.Filter{Dim: "Style", Value: "2S"}), "City", "Month", "Sales")
	if r := OverlapRatio([]*core.MetaInsight{a, a}); math.Abs(r-1) > 1e-12 {
		t.Errorf("identical MetaInsights overlap ratio = %v, want 1", r)
	}
}

func TestOverlapRatioPartial(t *testing.T) {
	a := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	// Same strategy/type/extdim/breakdown, different measure.
	b := mkMI(0.8, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Profit")
	r := OverlapRatio([]*core.MetaInsight{a, b})
	want := w11*1 + w12*1 + w13*0 + w14*1
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("partial overlap = %v, want %v", r, want)
	}
}

func TestOverlapUsesMinScore(t *testing.T) {
	a := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	b := mkMI(0.4, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	ov := Overlap([]*core.MetaInsight{a, b})
	if math.Abs(ov-0.4) > 1e-12 {
		t.Errorf("overlap of identical-identity pair = %v, want min score 0.4", ov)
	}
	if Overlap([]*core.MetaInsight{a}) != 0.9 {
		t.Error("singleton overlap must be the score")
	}
}

func TestTotalUseExactTwoIdentical(t *testing.T) {
	a := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	b := mkMI(0.4, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	// |a ∪ b| = 0.9 + 0.4 − 0.4 = 0.9: the fully redundant insight adds nothing.
	if got := TotalUseExact([]*core.MetaInsight{a, b}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("TotalUse = %v, want 0.9", got)
	}
}

func TestTotalUseDisjointIsSum(t *testing.T) {
	a := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	b := mkMI(0.8, model.ExtendMeasure, pattern.Trend, sub(), "", "Month", "Sales")
	c := mkMI(0.7, model.ExtendBreakdown, pattern.Outlier, sub(), "", "Week", "Sales")
	mis := []*core.MetaInsight{a, b, c}
	if got := TotalUseExact(mis); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("disjoint TotalUse = %v, want 2.4", got)
	}
	if got := TotalUseApprox(mis); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("disjoint TotalUseApprox = %v", got)
	}
}

func TestApproxMatchesExactForPairs(t *testing.T) {
	a := mkMI(0.9, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Sales")
	b := mkMI(0.5, model.ExtendSubspace, pattern.Unimodality, sub(), "City", "Month", "Profit")
	mis := []*core.MetaInsight{a, b}
	if math.Abs(TotalUseExact(mis)-TotalUseApprox(mis)) > 1e-12 {
		t.Error("second-order approximation must be exact for p=2")
	}
}

// family builds n MetaInsights in r redundancy groups: members of a group
// share identity-relevant fields (full overlap ratio), different groups are
// fully disjoint (different strategies/types rotated).
func family(n, groups int) []*core.MetaInsight {
	kinds := []model.ExtensionKind{model.ExtendSubspace, model.ExtendMeasure, model.ExtendBreakdown}
	types := []pattern.Type{pattern.Unimodality, pattern.Trend, pattern.Outlier,
		pattern.Evenness, pattern.Attribution, pattern.ChangePoint}
	out := make([]*core.MetaInsight, 0, n)
	for i := 0; i < n; i++ {
		g := i % groups
		score := 1.0 - 0.01*float64(i)
		out = append(out, mkMI(score, kinds[g%len(kinds)], types[g%len(types)],
			sub(model.Filter{Dim: "D" + strconv.Itoa(g), Value: "v"}),
			"City", "Month", "M"+strconv.Itoa(g)))
	}
	return out
}

func TestGreedyAvoidsRedundancy(t *testing.T) {
	// 12 candidates in 4 fully-redundant groups; greedy top-4 must pick one
	// per group while rank-by-score picks the 4 highest scores (which are
	// spread across groups 0..3 by construction — so make scores adversarial
	// instead: group 0 holds the top 4 scores).
	mis := family(16, 4)
	// Reassign scores: group of candidate i is i%4; give group 0 the best
	// scores.
	for i, mi := range mis {
		if i%4 == 0 {
			mi.Score = 0.9 - 0.001*float64(i)
		} else {
			mi.Score = 0.5 - 0.001*float64(i)
		}
	}
	got := Greedy(mis, 4)
	if len(got) != 4 {
		t.Fatalf("greedy returned %d", len(got))
	}
	groupsSeen := map[string]bool{}
	for _, mi := range got {
		groupsSeen[mi.HDP.HDS.Anchor.Measure.Key()+mi.HDP.Type.String()] = true
	}
	if len(groupsSeen) != 4 {
		t.Errorf("greedy picked redundant insights: %d distinct groups", len(groupsSeen))
	}
	rbs := RankByScore(mis, 4)
	rbsGroups := map[string]bool{}
	for _, mi := range rbs {
		rbsGroups[mi.HDP.HDS.Anchor.Measure.Key()+mi.HDP.Type.String()] = true
	}
	if len(rbsGroups) != 1 {
		t.Errorf("rank-by-score should have picked all of group 0, got %d groups", len(rbsGroups))
	}
	if TotalUseExact(got) <= TotalUseExact(rbs) {
		t.Error("greedy must beat rank-by-score on redundant candidates")
	}
}

func TestGreedyMatchesExactOnSmallPools(t *testing.T) {
	mis := family(8, 3)
	k := 3
	exact := ExactTopK(mis, k)
	greedy := Greedy(mis, k)
	eu := TotalUseExact(exact)
	gu := TotalUseExact(greedy)
	if gu < eu-1e-9 && eu-gu > 0.05*eu {
		t.Errorf("greedy %.4f far below exact %.4f", gu, eu)
	}
	if gu > eu+1e-9 {
		t.Errorf("greedy %.4f exceeds exact optimum %.4f", gu, eu)
	}
}

// TestExactTopKPoolRestriction checks Table 4's naive baseline as it runs:
// the exact enumeration over the top candidates by score never selects from
// outside that pool.
func TestExactTopKPoolRestriction(t *testing.T) {
	mis := family(20, 5)
	got := ExactTopK(RankByScore(mis, 6), 3)
	if len(got) != 3 {
		t.Fatalf("returned %d", len(got))
	}
	// All selections must come from the top-6 pool by score.
	pool := RankByScore(mis, 6)
	inPool := map[string]bool{}
	for _, mi := range pool {
		inPool[mi.Key()] = true
	}
	for _, mi := range got {
		if !inPool[mi.Key()] {
			t.Error("exact selection escaped the pool")
		}
	}
}

func TestPrecision(t *testing.T) {
	mis := family(6, 6)
	if p := Precision(mis[:4], mis[:4]); p != 1 {
		t.Errorf("identical sets precision = %v", p)
	}
	if p := Precision(mis[:4], mis[2:6]); p != 0.5 {
		t.Errorf("half overlap precision = %v", p)
	}
	if p := Precision(nil, mis); p != 0 {
		t.Error("empty golden set precision must be 0")
	}
}

func TestRankByScoreDeterministicTieBreak(t *testing.T) {
	mis := family(5, 5)
	for _, mi := range mis {
		mi.Score = 0.5
	}
	a := RankByScore(mis, 3)
	b := RankByScore([]*core.MetaInsight{mis[4], mis[2], mis[0], mis[3], mis[1]}, 3)
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("tie-break not deterministic across input orders")
		}
	}
}

func TestTotalUseExactRefusesHugeP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p > 25")
		}
	}()
	TotalUseExact(family(26, 26))
}

// randomCandidates builds a redundancy-heavy candidate set spanning several
// overlap groups with varied subspaces and scores.
func randomCandidates(seed int64, n int) []*core.MetaInsight {
	r := rand.New(rand.NewSource(seed))
	kinds := []model.ExtensionKind{model.ExtendSubspace, model.ExtendMeasure, model.ExtendBreakdown}
	types := []pattern.Type{pattern.Unimodality, pattern.Trend, pattern.Evenness}
	dims := []string{"City", "Region", "Product", "Channel"}
	out := make([]*core.MetaInsight, 0, n)
	for i := 0; i < n; i++ {
		root := sub()
		for d := 0; d < r.Intn(3); d++ {
			root = root.With(dims[r.Intn(len(dims))], "v"+strconv.Itoa(r.Intn(2)))
		}
		out = append(out, mkMI(
			0.1+0.9*r.Float64(),
			kinds[r.Intn(len(kinds))],
			types[r.Intn(len(types))],
			root,
			dims[r.Intn(len(dims))],
			[]string{"Month", "Quarter"}[r.Intn(2)],
			[]string{"Sales", "Units"}[r.Intn(2)],
		))
	}
	return out
}

func TestExactTopKGroupedMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		cands := randomCandidates(seed, 10)
		for _, k := range []int{2, 3, 4} {
			brute := ExactTopK(cands, k)
			grouped := ExactTopKGrouped(cands, k, 0)
			bu := TotalUseExact(brute)
			gu := TotalUseExact(grouped)
			if math.Abs(bu-gu) > 1e-9 {
				t.Fatalf("seed %d k=%d: grouped %v vs brute %v", seed, k, gu, bu)
			}
		}
	}
}

func TestGroupDecompositionOfTotalUse(t *testing.T) {
	// TotalUse over a mixed selection equals the sum of per-group TotalUses
	// (Equation 28's Cond makes cross-group overlap vanish).
	for seed := int64(0); seed < 10; seed++ {
		cands := randomCandidates(100+seed, 8)
		whole := TotalUseExact(cands)
		sum := 0.0
		p := poolOf(cands)
		for _, g := range p.groups(0) {
			sum += p.totalUseExact(g)
		}
		if math.Abs(whole-sum) > 1e-9 {
			t.Fatalf("seed %d: whole %v vs group sum %v", seed, whole, sum)
		}
	}
}

func TestGreedyExactAtLeastSecondOrder(t *testing.T) {
	// The exact-marginal greedy must never do worse than the second-order
	// greedy on the true objective, and never beat the exact optimum.
	for seed := int64(0); seed < 10; seed++ {
		cands := randomCandidates(200+seed, 24)
		k := 6
		exact := ExactTopKGrouped(cands, k, 0)
		ge := GreedyExact(cands, k)
		g2 := Greedy(cands, k)
		eu := TotalUseExact(exact)
		geu := TotalUseExact(ge)
		g2u := TotalUseExact(g2)
		if geu > eu+1e-9 {
			t.Fatalf("seed %d: exact-greedy %v beats optimum %v", seed, geu, eu)
		}
		if g2u > eu+1e-9 {
			t.Fatalf("seed %d: second-order greedy %v beats optimum %v", seed, g2u, eu)
		}
		if geu < g2u-1e-9 {
			t.Errorf("seed %d: exact-marginal greedy %v below second-order %v", seed, geu, g2u)
		}
	}
}

func TestExactTopKGroupedTruncation(t *testing.T) {
	cands := randomCandidates(77, 40)
	full := ExactTopKGrouped(cands, 5, 0)
	trunc := ExactTopKGrouped(cands, 5, 8)
	if len(full) != 5 || len(trunc) != 5 {
		t.Fatalf("selection sizes %d / %d", len(full), len(trunc))
	}
	if TotalUseExact(trunc) > TotalUseExact(full)+1e-9 {
		t.Error("truncated search beat the untruncated optimum")
	}
}

func TestProgressiveMatchesBatchGreedy(t *testing.T) {
	cands := randomCandidates(5, 60)
	p := NewProgressive(5) // buffer 160 ≥ 60: no truncation
	for _, mi := range cands {
		p.Add(mi)
	}
	got := p.TopK()
	want := Greedy(cands, 5)
	if len(got) != len(want) {
		t.Fatalf("%d vs %d selections", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("selection %d differs: %s vs %s", i, got[i].Key(), want[i].Key())
		}
	}
}

func TestProgressiveBufferTruncation(t *testing.T) {
	// 400 candidates overflow the 32·3 = 96 buffer.
	cands := randomCandidates(9, 400)
	p := NewProgressive(3)
	for _, mi := range cands {
		p.Add(mi)
	}
	if len(p.buffer) != 96 {
		t.Fatalf("buffer holds %d candidates, want 96", len(p.buffer))
	}
	got := p.TopK()
	if len(got) != 3 {
		t.Fatalf("got %d selections", len(got))
	}
	// Every selection must come from the overall top-96 by score.
	top := RankByScore(cands, 96)
	inTop := map[string]bool{}
	for _, mi := range top {
		inTop[mi.Key()] = true
	}
	for _, mi := range got {
		if !inTop[mi.Key()] {
			t.Errorf("selection %s escaped the score buffer", mi.Key())
		}
	}
}

func TestProgressiveConcurrentAdds(t *testing.T) {
	// 400 candidates overflow the 32·5 = 160 buffer.
	cands := randomCandidates(3, 400)
	p := NewProgressive(5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(cands); i += 8 {
				p.Add(cands[i])
				if i%17 == 0 {
					p.TopK()
				}
			}
		}(g)
	}
	wg.Wait()
	// Every concurrent Add lands: the suggestion equals a sequential one's.
	seq := NewProgressive(5)
	for _, mi := range cands {
		seq.Add(mi)
	}
	got, want := p.TopK(), seq.TopK()
	if len(got) != 5 || len(want) != 5 {
		t.Fatalf("TopK returned %d and %d sequentially", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Errorf("selection %d = %s, sequential %s", i, got[i].Key(), want[i].Key())
		}
	}
}
