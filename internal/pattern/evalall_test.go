package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"metainsight/internal/model"
)

// referenceAll is the per-type loop EvaluateAllScoped replaced: every type
// evaluated independently through EvaluateScoped, the ones that hold kept in
// type order.
func referenceAll(scope model.DataScope, keys []string, values []float64, temporal bool, cfg Config) *ScopeEvaluation {
	se := &ScopeEvaluation{}
	for t := Type(0); int(t) < cfg.NumConcreteTypes(); t++ {
		if ev := EvaluateScoped(scope, t, keys, values, temporal, cfg); ev.Valid {
			se.Holds = append(se.Holds, Hold{Type: t, Evaluation: ev})
		}
	}
	return se
}

// randomSeries draws a series shaped to exercise the criteria's edge cases:
// ties (values from a small set), signed zeros, constant runs, planted
// leaders, trends, periods and level shifts.
func randomSeries(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	switch r.Intn(8) {
	case 0: // few distinct values: many ties
		for i := range v {
			v[i] = float64(r.Intn(3))
		}
	case 1: // constant, possibly with one outlier
		c := float64(r.Intn(5)) - 2
		for i := range v {
			v[i] = c
		}
		if r.Intn(2) == 0 {
			v[r.Intn(n)] += 10
		}
	case 2: // signed zeros among small values
		for i := range v {
			switch r.Intn(4) {
			case 0:
				v[i] = math.Copysign(0, -1)
			case 1:
				v[i] = 0
			default:
				v[i] = float64(r.Intn(3) - 1)
			}
		}
	case 3: // planted leaders at both ends over a regular tail
		for i := range v {
			v[i] = 10 + float64(i%4)
		}
		v[r.Intn(n)] = 100
		v[r.Intn(n)] = -100
	case 4: // trend plus noise
		slope := r.NormFloat64()
		for i := range v {
			v[i] = slope*float64(i) + 0.3*r.NormFloat64()
		}
	case 5: // period plus noise
		period := 2 + r.Intn(4)
		for i := range v {
			v[i] = 5*math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.2*r.NormFloat64()
		}
	case 6: // level shift with an occasional spike
		at := r.Intn(n)
		for i := range v {
			v[i] = r.NormFloat64()
			if i >= at {
				v[i] += 8
			}
		}
		if r.Intn(2) == 0 {
			v[r.Intn(n)] += 40
		}
	default: // valley or peak
		mid := float64(r.Intn(n))
		sign := float64(1 - 2*r.Intn(2))
		for i := range v {
			v[i] = sign*math.Abs(float64(i)-mid) + 0.1*r.NormFloat64()
		}
	}
	return v
}

// TestEvaluateAllScopedMatchesPerTypeReference pins the rank-once evaluator
// to the per-type reference on randomized series: same validity, highlights
// and strengths, bit for bit, for temporal and categorical breakdowns,
// including a custom type and non-finite input.
func TestEvaluateAllScopedMatchesPerTypeReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Custom = []CustomEvaluator{
		{Name: "first-above-last", Evaluate: func(keys []string, values []float64) Evaluation {
			if values[0] > values[len(values)-1] {
				return Evaluation{Valid: true, Highlight: Highlight{Positions: []string{keys[0]}}, Strength: 0.5}
			}
			return Evaluation{}
		}},
		{Name: "temporal-only", TemporalOnly: true, EvaluateScope: func(scope model.DataScope, keys []string, values []float64) Evaluation {
			return Evaluation{Valid: len(values)%2 == 0, Highlight: Highlight{Label: scope.Breakdown}}
		}},
	}
	scope := model.DataScope{Breakdown: "Month", Measure: model.Count("*")}
	r := rand.New(rand.NewSource(42))
	valid := make(map[Type]int)
	for trial := 0; trial < 6000; trial++ {
		n := 3 + r.Intn(38)
		values := randomSeries(r, n)
		if trial%97 == 0 {
			values[r.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		}
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%02d", i)
		}
		for _, temporal := range []bool{false, true} {
			orig := append([]float64(nil), values...)
			got := EvaluateAllScoped(scope, keys, values, temporal, cfg)
			want := referenceAll(scope, keys, values, temporal, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d temporal=%v n=%d values=%v:\n got  %+v\n want %+v", trial, temporal, n, values, got, want)
			}
			for i := range orig {
				if math.Float64bits(orig[i]) != math.Float64bits(values[i]) {
					t.Fatalf("trial %d: EvaluateAllScoped modified its input at %d", trial, i)
				}
			}
			for _, h := range got.Holds {
				valid[h.Type]++
			}
		}
	}
	// The comparison is only meaningful if the generator reaches every type.
	for ty := Type(0); int(ty) < cfg.NumConcreteTypes(); ty++ {
		if valid[ty] == 0 {
			t.Errorf("no trial produced a valid %s; the generator does not cover it", cfg.TypeName(ty))
		}
	}
}

// TestHoldsDoNotAliasScratch: an evaluation's holders are its own. Evaluating
// another series, which reuses the pooled scratch, leaves them as they were.
func TestHoldsDoNotAliasScratch(t *testing.T) {
	valley := []float64{100, 80, 55, 30, 12, 28, 52, 78, 95, 98, 99, 100}
	rising := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	a := EvaluateAll(months(), valley, true, cfg)
	want := referenceAll(model.DataScope{}, months(), valley, true, cfg)
	if !a.AnyValid() {
		t.Fatal("vacuous: nothing holds for the valley")
	}
	for i := 0; i < 8; i++ {
		if b := EvaluateAll(months(), rising, true, cfg); !b.AnyValid() {
			t.Fatal("vacuous: nothing holds for the rising series")
		}
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("the valley's holders changed after later evaluations:\n got  %+v\n want %+v", a, want)
	}
}

// TestNothingHoldsIsEmpty: a non-finite series and a noise series both
// evaluate to a value with no holders, the one shared value, allocating
// nothing for it.
func TestNothingHoldsIsEmpty(t *testing.T) {
	noise := []float64{2, 8, 8, 10, 2, 9, 6, 1, 7, 1, 5, 2}
	nonFinite := []float64{1, 2, math.NaN(), 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, tc := range []struct {
		name   string
		values []float64
	}{{"noise", noise}, {"non-finite", nonFinite}} {
		se := EvaluateAll(months(), tc.values, true, cfg)
		if len(se.Holds) != 0 || se.AnyValid() {
			t.Errorf("%s: %d types hold, want none", tc.name, len(se.Holds))
		}
		if se != &noneHold {
			t.Errorf("%s: got a value of its own, want the shared empty one", tc.name)
		}
		if tp, _ := se.Induced(Trend); tp != NoPattern {
			t.Errorf("%s: Induced(Trend) = %v, want NoPattern", tc.name, tp)
		}
	}
	keys := months()
	if allocs := testing.AllocsPerRun(10, func() { EvaluateAll(keys, nonFinite, true, cfg) }); allocs != 0 {
		t.Errorf("a non-finite series allocates %v times, want 0", allocs)
	}
}
