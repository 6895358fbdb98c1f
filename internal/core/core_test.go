package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

// paperTau is the paper's default commonness threshold τ (Section 4.1).
const paperTau = 0.5

func scope(city string) model.DataScope {
	return model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: city}),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}
}

func valleyPattern(city, month string) DataPattern {
	return DataPattern{
		Scope:     scope(city),
		Type:      pattern.Unimodality,
		Highlight: pattern.Highlight{Positions: []string{month}, Label: "valley"},
	}
}

func TestSimDefinition(t *testing.T) {
	a := valleyPattern("LA", "Apr")
	b := valleyPattern("SF", "Apr")
	c := valleyPattern("SD", "Jul")
	other := DataPattern{Scope: scope("SJ"), Type: pattern.OtherPattern}
	none := DataPattern{Scope: scope("RV"), Type: pattern.NoPattern}

	if !Sim(a, b) {
		t.Error("same type+highlight must be similar")
	}
	if Sim(a, c) {
		t.Error("different highlight must not be similar")
	}
	if Sim(a, other) || Sim(other, other) || Sim(a, none) || Sim(none, none) {
		t.Error("placeholder types are never similar (Equation 8)")
	}
	trend := DataPattern{Scope: scope("X"), Type: pattern.Trend,
		Highlight: pattern.Highlight{Label: "valley", Positions: []string{"Apr"}}}
	if Sim(a, trend) {
		t.Error("different types must not be similar")
	}
}

func TestSimIsEquivalenceOnConcretePatterns(t *testing.T) {
	// Random concrete patterns: Sim must be reflexive, symmetric, transitive.
	gen := func(r *rand.Rand) DataPattern {
		return DataPattern{
			Scope: scope("c" + strconv.Itoa(r.Intn(3))),
			Type:  pattern.Type(r.Intn(int(pattern.NumTypes))),
			Highlight: pattern.Highlight{
				Positions: []string{"p" + strconv.Itoa(r.Intn(3))},
				Label:     []string{"", "x"}[r.Intn(2)],
			},
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if !Sim(a, a) {
			t.Fatal("Sim not reflexive")
		}
		if Sim(a, b) != Sim(b, a) {
			t.Fatal("Sim not symmetric")
		}
		if Sim(a, b) && Sim(b, c) && !Sim(a, c) {
			t.Fatal("Sim not transitive")
		}
	}
}

func TestHDSConstructors(t *testing.T) {
	anchor := scope("LA")
	cities := []string{"LA", "SF", "SD"}
	h := SubspaceHDS(anchor, "City", cities)
	if len(h.Scopes) != 3 || h.Kind != model.ExtendSubspace || h.ExtDim != "City" {
		t.Fatalf("SubspaceHDS = %+v", h)
	}
	for i, c := range cities {
		if v, _ := h.Scopes[i].Subspace.Get("City"); v != c {
			t.Errorf("scope %d city = %q", i, v)
		}
		if h.Scopes[i].Breakdown != "Month" || h.Scopes[i].Measure != anchor.Measure {
			t.Error("subspace extension must keep breakdown and measure fixed")
		}
	}

	ms := []model.Measure{model.Sum("Sales"), model.Avg("Profit"), model.Count("*")}
	hm := MeasureHDS(anchor, ms)
	if len(hm.Scopes) != 3 {
		t.Fatalf("MeasureHDS size = %d", len(hm.Scopes))
	}
	for i, m := range ms {
		if hm.Scopes[i].Measure != m || hm.Scopes[i].Subspace.Key() != anchor.Subspace.Key() {
			t.Error("measure extension must vary only the measure")
		}
	}

	hb := BreakdownHDS(anchor, []string{"Month", "Week", "City"})
	// "City" is filtered in the anchor subspace and must be skipped.
	if len(hb.Scopes) != 2 {
		t.Fatalf("BreakdownHDS = %+v", hb.Scopes)
	}
	for _, s := range hb.Scopes {
		if s.Breakdown == "City" {
			t.Error("filtered dimension used as extended breakdown")
		}
	}
}

func TestHDSKeyIdentityAcrossAnchors(t *testing.T) {
	cities := []string{"LA", "SF", "SD"}
	fromLA := SubspaceHDS(scope("LA"), "City", cities)
	fromSF := SubspaceHDS(scope("SF"), "City", cities)
	if fromLA.Key() != fromSF.Key() {
		t.Error("same sibling-group HDS reached from different anchors must share a key")
	}
	otherMeasure := scope("LA")
	otherMeasure.Measure = model.Avg("Sales")
	if SubspaceHDS(otherMeasure, "City", cities).Key() == fromLA.Key() {
		t.Error("different measures must produce different HDS keys")
	}
}

func TestRootSubspace(t *testing.T) {
	anchor := model.DataScope{
		Subspace: model.NewSubspace(
			model.Filter{Dim: "City", Value: "LA"},
			model.Filter{Dim: "Style", Value: "2Story"},
		),
		Breakdown: "Month",
		Measure:   model.Sum("Sales"),
	}
	h := SubspaceHDS(anchor, "City", []string{"LA", "SF"})
	root := h.RootSubspace()
	if root.Has("City") || !root.Has("Style") {
		t.Errorf("root = %v", root)
	}
	hm := MeasureHDS(anchor, []model.Measure{model.Sum("Sales"), model.Count("*")})
	if hm.RootSubspace().Key() != anchor.Subspace.Key() {
		t.Error("measure-extension root must be the anchor subspace")
	}
}

func buildHDP(t *testing.T, dps []DataPattern) *HDP {
	t.Helper()
	h := SubspaceHDS(dps[0].Scope, "City", nil)
	for _, dp := range dps {
		h.Scopes = append(h.Scopes, dp.Scope)
	}
	return &HDP{HDS: h, Type: pattern.Unimodality, Patterns: dps}
}

func TestBuildMetaInsightCommonnessAndExceptions(t *testing.T) {
	// 6 valley-at-Apr, 1 valley-at-Jul, 1 OtherPattern, 1 NoPattern → with
	// τ=0.5: one commonness (6/9) and three exception categories.
	dps := []DataPattern{}
	for i := 0; i < 6; i++ {
		dps = append(dps, valleyPattern("c"+strconv.Itoa(i), "Apr"))
	}
	dps = append(dps, valleyPattern("SD", "Jul"))
	dps = append(dps, DataPattern{Scope: scope("SJ"), Type: pattern.OtherPattern})
	dps = append(dps, DataPattern{Scope: scope("RV"), Type: pattern.NoPattern})

	mi, ok := BuildMetaInsight(buildHDP(t, dps), 0.8, paperTau)
	if !ok {
		t.Fatal("valid MetaInsight rejected")
	}
	if len(mi.CommSet) != 1 || len(mi.CommSet[0].Indices) != 6 {
		t.Fatalf("CommSet = %+v", mi.CommSet)
	}
	if mi.CommSet[0].Highlight.Positions[0] != "Apr" {
		t.Error("commonness highlight wrong")
	}
	if len(mi.Exceptions) != 3 {
		t.Fatalf("exceptions = %+v", mi.Exceptions)
	}
	gotCats := map[ExceptionCategory]int{}
	for _, e := range mi.Exceptions {
		gotCats[e.Category]++
	}
	if gotCats[HighlightChange] != 1 || gotCats[TypeChange] != 1 || gotCats[NoPatternException] != 1 {
		t.Errorf("categories = %v", gotCats)
	}
	// Proportions must sum to 1 (Definition 4.1).
	sum := 0.0
	for _, a := range mi.Alphas {
		sum += a
	}
	for _, b := range mi.Betas {
		sum += b
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("proportions sum to %v", sum)
	}
	if !mi.HasExceptions() {
		t.Error("HasExceptions false")
	}
	if mi.ImpactHDS != 0.8 {
		t.Error("impact not recorded")
	}
}

func TestBuildMetaInsightRejectsWithoutCommonness(t *testing.T) {
	// Four distinct highlights with τ=0.5: no class clears the threshold.
	dps := []DataPattern{
		valleyPattern("a", "Jan"), valleyPattern("b", "Feb"),
		valleyPattern("c", "Mar"), valleyPattern("d", "Apr"),
	}
	if _, ok := BuildMetaInsight(buildHDP(t, dps), 1, paperTau); ok {
		t.Error("MetaInsight without commonness accepted (Definition 3.5 requires CommSet ≠ ∅)")
	}
	// A single pattern is no structure at all.
	if _, ok := BuildMetaInsight(buildHDP(t, dps[:1]), 1, paperTau); ok {
		t.Error("single-pattern HDP accepted")
	}
}

func TestBuildMetaInsightMultipleCommonnesses(t *testing.T) {
	// 4 valley-Apr + 4 valley-Jul + 2 NoPattern: both classes clear τ=0.3.
	dps := []DataPattern{}
	for i := 0; i < 4; i++ {
		dps = append(dps, valleyPattern("a"+strconv.Itoa(i), "Apr"))
	}
	for i := 0; i < 4; i++ {
		dps = append(dps, valleyPattern("j"+strconv.Itoa(i), "Jul"))
	}
	dps = append(dps, DataPattern{Scope: scope("x"), Type: pattern.NoPattern})
	dps = append(dps, DataPattern{Scope: scope("y"), Type: pattern.NoPattern})
	mi, ok := BuildMetaInsight(buildHDP(t, dps), 1, 0.3)
	if !ok || len(mi.CommSet) != 2 {
		t.Fatalf("ok=%v CommSet=%v", ok, mi.CommSet)
	}
	if len(mi.Betas) != 1 || mi.Betas[0] != 0.2 {
		t.Errorf("betas = %v", mi.Betas)
	}
}

func TestNoExceptionRegularization(t *testing.T) {
	// Perfectly uniform commonness: S = 0, but γ penalizes no-exceptions.
	uniform := []DataPattern{}
	for i := 0; i < 5; i++ {
		uniform = append(uniform, valleyPattern("c"+strconv.Itoa(i), "Apr"))
	}
	noExc, ok := BuildMetaInsight(buildHDP(t, uniform), 1, paperTau)
	if !ok {
		t.Fatal("rejected")
	}
	smax := SMax(paperTau, paperR, paperK)
	want := 1 - paperGamma/smax
	if math.Abs(noExc.Conciseness-want) > 1e-12 {
		t.Errorf("conciseness = %v, want %v", noExc.Conciseness, want)
	}

	// The same commonness with one exception must be more "actionable" than
	// a slightly larger exception-free one if γ outweighs the entropy cost —
	// here just verify the exception-free penalty applies only without
	// exceptions.
	withExc := append(uniform[:4:4], DataPattern{Scope: scope("z"), Type: pattern.NoPattern})
	excMI, ok := BuildMetaInsight(buildHDP(t, withExc), 1, paperTau)
	if !ok {
		t.Fatal("rejected")
	}
	wantS := EntropyS([]float64{0.8}, []float64{0.2}, paperR)
	if math.Abs(excMI.Entropy-wantS) > 1e-12 {
		t.Errorf("entropy = %v, want %v", excMI.Entropy, wantS)
	}
	if math.Abs(excMI.Conciseness-(1-wantS/smax)) > 1e-12 {
		t.Error("regularization applied despite exceptions present")
	}
}

func TestEntropySKnownValues(t *testing.T) {
	if s := EntropyS([]float64{1}, nil, 1); s != 0 {
		t.Errorf("S of single commonness = %v", s)
	}
	s := EntropyS([]float64{0.5}, []float64{0.5}, 1)
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("S(0.5, 0.5) = %v", s)
	}
	// r scales only the exception part.
	s2 := EntropyS([]float64{0.5}, []float64{0.5}, 2)
	if math.Abs(s2-1.5) > 1e-12 {
		t.Errorf("S with r=2 = %v", s2)
	}
}

func TestSMaxPaperParameters(t *testing.T) {
	// τ=0.5, r=1, k=3 lands in the k ≥ (1−τ)e/τ^{1/r} branch:
	// S* = 0.5 + 0.5·log₂6.
	want := 0.5 + 0.5*math.Log2(6)
	if got := SMax(0.5, 1, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("SMax(0.5,1,3) = %v, want %v", got, want)
	}
	// Small k with small τ lands in the interior-optimum branch.
	tau := 0.1
	k := 1
	// (1−τ)e/τ = 24.46 > 1 → interior branch.
	want = -math.Log2(tau) + 1*float64(k)*tau*math.Log2(math.E)/math.E
	if got := SMax(tau, 1, k); math.Abs(got-want) > 1e-12 {
		t.Errorf("SMax(0.1,1,1) = %v, want %v", got, want)
	}
}

func TestSMaxContinuityAndMonotonicity(t *testing.T) {
	// Corollary 4.1.1: S*(τ) is continuous and monotonically decreasing.
	for _, r := range []float64{0.5, 1, 2} {
		for _, k := range []int{1, 2, 3, 5} {
			const step = 0.002
			prev := math.Inf(1)
			for tau := 0.02; tau < 0.99; tau += step {
				s := SMax(tau, r, k)
				if s > prev+1e-9 {
					t.Fatalf("S* not decreasing at τ=%v r=%v k=%d: %v > %v", tau, r, k, s, prev)
				}
				// Continuity: the drop per step must respect the local
				// Lipschitz bound; |dS*/dτ| is dominated by the −log₂τ term
				// (≤ 1/(τ·ln2)) at small τ and by r·log₂(k/(1−τ)) near τ→1.
				limit := step * (1/(tau*math.Ln2) +
					r*(math.Abs(math.Log2((1-tau)/float64(k)))+2) + 10)
				if !math.IsInf(prev, 1) && prev-s > limit {
					t.Fatalf("S* jump at τ=%v r=%v k=%d: %v → %v", tau, r, k, prev, s)
				}
				prev = s
			}
		}
	}
}

func TestSBoundedBySMax(t *testing.T) {
	// Property: for any valid MetaInsight representation (α each > τ,
	// Σα + Σβ = 1, v ≤ k), S ≤ S*(τ).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tau := 0.2 + 0.6*r.Float64()
		// Random number of commonnesses, each > tau.
		maxU := int(1 / tau)
		if maxU < 1 {
			maxU = 1
		}
		u := 1 + r.Intn(maxU)
		alphas := make([]float64, u)
		remaining := 1.0
		for i := range alphas {
			// Each α must exceed τ and leave room for the others.
			alphas[i] = tau + 1e-9
			remaining -= alphas[i]
		}
		if remaining < 0 {
			return true // infeasible draw; skip
		}
		// Distribute some of the remainder back to α's, rest to β's.
		extra := remaining * r.Float64()
		alphas[0] += extra
		remaining -= extra
		v := r.Intn(paperK + 1)
		betas := make([]float64, 0, v)
		for i := 0; i < v && remaining > 1e-12; i++ {
			share := remaining
			if i < v-1 {
				share = remaining * r.Float64()
			}
			betas = append(betas, share)
			remaining -= share
		}
		alphas[0] += remaining // fold any leftover into a commonness
		s := EntropyS(alphas, betas, paperR)
		return s <= SMax(tau, paperR, paperK)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConcisenessRange(t *testing.T) {
	if c := ConcisenessReg(0, false, paperTau); c != 1 {
		t.Errorf("zero entropy with exceptions → conciseness %v, want 1", c)
	}
	if c := ConcisenessReg(SMax(paperTau, paperR, paperK), false, paperTau); c != 0 {
		t.Errorf("max entropy → conciseness %v, want 0", c)
	}
	if c := ConcisenessReg(100, false, paperTau); c != 0 {
		t.Error("conciseness must clamp at 0")
	}
}

func TestScoreClampsImpact(t *testing.T) {
	if Score(0.5, 3.0) != 0.5 {
		t.Error("g must clamp impact at 1")
	}
	if Score(0.5, 0.5) != 0.25 {
		t.Error("score = f(c)·g(i)")
	}
	if Score(0.5, -1) != 0 {
		t.Error("negative impact must clamp to 0")
	}
}

func TestSMaxPanicsOnBadInputs(t *testing.T) {
	for _, fn := range []func(){
		func() { SMax(0, 1, 3) },
		func() { SMax(1, 1, 3) },
		func() { SMax(0.5, 0, 3) },
		func() { SMax(0.5, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCategorizeRawRecoversShapeOutlier(t *testing.T) {
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun"}
	mk := func(vals ...float64) RawDistribution {
		return RawDistribution{Keys: months, Values: vals}
	}
	dists := []RawDistribution{
		mk(10, 10, 10, 10, 10, 10),
		mk(20, 20, 20, 20, 20, 20), // same shape, double magnitude
		mk(5, 5, 5, 5, 5, 5),
		mk(100, 1, 1, 1, 1, 1), // the shape outlier
	}
	cat, ok := CategorizeRaw(dists)
	if !ok {
		t.Fatal("no commonness found")
	}
	if len(cat.ExceptionIdx) != 1 || cat.ExceptionIdx[0] != 3 {
		t.Errorf("exceptions = %v, want [3]", cat.ExceptionIdx)
	}
}

func TestCategorizeRawRequiresMajority(t *testing.T) {
	months := []string{"A", "B", "C", "D"}
	dists := []RawDistribution{
		{Keys: months, Values: []float64{1, 0, 0, 0}},
		{Keys: months, Values: []float64{0, 1, 0, 0}},
		{Keys: months, Values: []float64{0, 0, 1, 0}},
		{Keys: months, Values: []float64{0, 0, 0, 1}},
	}
	if _, ok := CategorizeRaw(dists); ok {
		t.Error("four disjoint point masses cannot form a commonness")
	}
}

func TestExceptionSetEquals(t *testing.T) {
	if !ExceptionSetEquals([]int{1, 3}, map[int]bool{1: true, 3: true}) {
		t.Error("equal sets reported unequal")
	}
	if ExceptionSetEquals([]int{1}, map[int]bool{1: true, 3: true}) {
		t.Error("subset reported equal")
	}
	if ExceptionSetEquals([]int{1, 2}, map[int]bool{1: true, 3: true}) {
		t.Error("different sets reported equal")
	}
}

func TestBuildMetaInsightProportionsProperty(t *testing.T) {
	// Property: for random HDPs, any accepted MetaInsight's proportions sum
	// to 1, every α exceeds τ, exceptions and commonness members partition
	// the HDP, and the score stays in [0, 1].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		highlights := []string{"Apr", "Jul", "Sep"}
		dps := make([]DataPattern, 0, n)
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0, 1:
				dps = append(dps, valleyPattern("c"+strconv.Itoa(i), highlights[r.Intn(2)]))
			case 2:
				dps = append(dps, DataPattern{Scope: scope("o" + strconv.Itoa(i)), Type: pattern.OtherPattern})
			default:
				dps = append(dps, DataPattern{Scope: scope("n" + strconv.Itoa(i)), Type: pattern.NoPattern})
			}
		}
		mi, ok := BuildMetaInsight(buildHDP(t, dps), r.Float64(), paperTau)
		if !ok {
			return true // rejected HDPs are fine
		}
		sum := 0.0
		covered := 0
		for i, a := range mi.Alphas {
			sum += a
			if a <= paperTau {
				t.Logf("alpha %v ≤ τ", a)
				return false
			}
			covered += len(mi.CommSet[i].Indices)
		}
		for _, b := range mi.Betas {
			sum += b
		}
		covered += len(mi.Exceptions)
		if covered != n {
			t.Logf("partition covers %d of %d", covered, n)
			return false
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Logf("proportions sum %v", sum)
			return false
		}
		return mi.Score >= 0 && mi.Score <= 1 && mi.Conciseness >= 0 && mi.Conciseness <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildMetaInsightClassesAreSimClasses checks BuildMetaInsight's
// partition against Sim (Equation 8) on random HDPs: a pattern in a
// commonness is similar to exactly that commonness's members, and an HDP is
// rejected exactly when no Sim class has more than τ of its patterns.
func TestBuildMetaInsightClassesAreSimClasses(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		dps := make([]DataPattern, 0, n)
		for i := 0; i < n; i++ {
			switch r.Intn(5) {
			case 0, 1, 2:
				dp := valleyPattern("c"+strconv.Itoa(i), []string{"Apr", "Jul"}[r.Intn(2)])
				dp.Highlight.Label = []string{"valley", "peak"}[r.Intn(2)]
				dps = append(dps, dp)
			case 3:
				dps = append(dps, DataPattern{Scope: scope("o" + strconv.Itoa(i)), Type: pattern.OtherPattern})
			default:
				dps = append(dps, DataPattern{Scope: scope("n" + strconv.Itoa(i)), Type: pattern.NoPattern})
			}
		}
		largest := 0
		for _, a := range dps {
			size := 0
			for _, b := range dps {
				if Sim(a, b) {
					size++
				}
			}
			largest = max(largest, size)
		}
		mi, ok := BuildMetaInsight(buildHDP(t, dps), 1, paperTau)
		if ok != (float64(largest) > paperTau*float64(n)) {
			t.Logf("accepted = %v with a largest Sim class of %d of %d", ok, largest, n)
			return false
		}
		if !ok {
			return true
		}
		for _, c := range mi.CommSet {
			in := map[int]bool{}
			for _, i := range c.Indices {
				in[i] = true
			}
			for _, i := range c.Indices {
				for j := range dps {
					if Sim(dps[i], dps[j]) != in[j] {
						t.Logf("commonness %v: Sim(%d, %d) = %v", c.Indices, i, j, !in[j])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
