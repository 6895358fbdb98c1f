package pattern

import (
	"math"
	"strconv"
	"testing"
)

var cfg = DefaultConfig()

func keysFor(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "k" + strconv.Itoa(i)
	}
	return out
}

func months() []string {
	return []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
}

func TestOutstandingFirstPositive(t *testing.T) {
	vals := []float64{500, 80, 75, 70, 68, 66, 60}
	ev := Evaluate(OutstandingFirst, keysFor(7), vals, false, cfg)
	if !ev.Valid {
		t.Fatal("dominant leader not detected")
	}
	if len(ev.Highlight.Positions) != 1 || ev.Highlight.Positions[0] != "k0" {
		t.Errorf("highlight = %v", ev.Highlight)
	}
}

func TestOutstandingFirstNegative(t *testing.T) {
	vals := []float64{80, 78, 76, 74, 72, 70, 68}
	if ev := Evaluate(OutstandingFirst, keysFor(7), vals, false, cfg); ev.Valid {
		t.Errorf("smooth series detected as outstanding: %v", ev.Highlight)
	}
}

func TestOutstandingLast(t *testing.T) {
	vals := []float64{80, 78, 76, 74, 72, 70, 2}
	ev := Evaluate(OutstandingLast, keysFor(7), vals, false, cfg)
	if !ev.Valid || ev.Highlight.Positions[0] != "k6" {
		t.Fatalf("outstanding-last: valid=%v highlight=%v", ev.Valid, ev.Highlight)
	}
}

func TestOutstandingTop2(t *testing.T) {
	vals := []float64{500, 480, 80, 75, 70, 68, 66}
	ev := Evaluate(OutstandingTop2, keysFor(7), vals, false, cfg)
	if !ev.Valid {
		t.Fatal("top-two not detected")
	}
	if len(ev.Highlight.Positions) != 2 || ev.Highlight.Positions[0] != "k0" || ev.Highlight.Positions[1] != "k1" {
		t.Errorf("highlight = %v", ev.Highlight)
	}
}

func TestOutstandingLast2(t *testing.T) {
	vals := []float64{80, 78, 76, 74, 72, 3, 2}
	ev := Evaluate(OutstandingLast2, keysFor(7), vals, false, cfg)
	if !ev.Valid || len(ev.Highlight.Positions) != 2 {
		t.Fatalf("last-two: valid=%v highlight=%v", ev.Valid, ev.Highlight)
	}
	// Positions ordered most-extreme first.
	if ev.Highlight.Positions[0] != "k6" || ev.Highlight.Positions[1] != "k5" {
		t.Errorf("positions = %v", ev.Highlight.Positions)
	}
}

func TestEvenness(t *testing.T) {
	even := []float64{100, 102, 98, 101, 99}
	ev := Evaluate(Evenness, keysFor(5), even, false, cfg)
	if !ev.Valid || ev.Highlight.Label != "even" {
		t.Fatalf("even series not detected: %+v", ev)
	}
	uneven := []float64{100, 10, 200, 5, 80}
	if Evaluate(Evenness, keysFor(5), uneven, false, cfg).Valid {
		t.Error("uneven series detected as even")
	}
}

func TestAttribution(t *testing.T) {
	vals := []float64{60, 10, 10, 10, 10}
	ev := Evaluate(Attribution, keysFor(5), vals, false, cfg)
	if !ev.Valid || ev.Highlight.Positions[0] != "k0" {
		t.Fatalf("dominant share not detected: %+v", ev)
	}
	if Evaluate(Attribution, keysFor(5), []float64{30, 25, 20, 15, 10}, false, cfg).Valid {
		t.Error("non-majority share detected as attribution")
	}
	if Evaluate(Attribution, keysFor(5), []float64{60, -10, 10, 10, 10}, false, cfg).Valid {
		t.Error("mixed-sign series must not yield attribution")
	}
}

func TestTrend(t *testing.T) {
	up := []float64{10, 13, 15, 18, 22, 24, 28, 30}
	ev := Evaluate(Trend, months()[:8], up, true, cfg)
	if !ev.Valid || ev.Highlight.Label != "increasing" {
		t.Fatalf("upward trend: %+v", ev)
	}
	down := []float64{30, 28, 24, 22, 18, 15, 13, 10}
	ev = Evaluate(Trend, months()[:8], down, true, cfg)
	if !ev.Valid || ev.Highlight.Label != "decreasing" {
		t.Fatalf("downward trend: %+v", ev)
	}
	noise := []float64{20, 22, 19, 21, 20, 22, 19, 21}
	if Evaluate(Trend, months()[:8], noise, true, cfg).Valid {
		t.Error("noise detected as trend")
	}
}

func TestTrendRequiresTemporal(t *testing.T) {
	up := []float64{10, 13, 15, 18, 22, 24, 28, 30}
	if Evaluate(Trend, keysFor(8), up, false, cfg).Valid {
		t.Error("trend must require a temporal breakdown")
	}
}

func TestOutlier(t *testing.T) {
	vals := []float64{10, 11, 10, 12, 11, 10, 11, 80, 10, 11, 12, 10}
	ev := Evaluate(Outlier, months(), vals, true, cfg)
	if !ev.Valid {
		t.Fatal("spike not detected")
	}
	if len(ev.Highlight.Positions) != 1 || ev.Highlight.Positions[0] != "Aug" || ev.Highlight.Label != "above" {
		t.Errorf("highlight = %v", ev.Highlight)
	}
	dip := []float64{10, 11, 10, -60, 11, 10, 11, 10, 10, 11, 12, 10}
	ev = Evaluate(Outlier, months(), dip, true, cfg)
	if !ev.Valid || ev.Highlight.Label != "below" || ev.Highlight.Positions[0] != "Apr" {
		t.Errorf("dip highlight = %+v", ev)
	}
	if Evaluate(Outlier, months(), []float64{10, 11, 10, 12, 11, 10, 11, 10, 10, 11, 12, 10}, true, cfg).Valid {
		t.Error("flat series has no outliers")
	}
}

func TestSeasonality(t *testing.T) {
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/4)
	}
	ev := Evaluate(Seasonality, keysFor(24), vals, true, cfg)
	if !ev.Valid || ev.Highlight.Label != "period=4" {
		t.Fatalf("period-4 signal: %+v", ev)
	}
	noise := []float64{5, 9, 2, 7, 4, 8, 1, 6, 3, 9, 2, 5, 7, 1, 8, 4}
	if ev := Evaluate(Seasonality, keysFor(16), noise, true, cfg); ev.Valid {
		t.Errorf("noise detected as seasonal: %+v", ev)
	}
}

func TestSeasonalityDetrends(t *testing.T) {
	// Strong trend + period-4 oscillation: the oscillation must still win.
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i)*10 + 30*math.Sin(2*math.Pi*float64(i)/4)
	}
	ev := Evaluate(Seasonality, keysFor(24), vals, true, cfg)
	if !ev.Valid || ev.Highlight.Label != "period=4" {
		t.Fatalf("trended seasonal signal: %+v", ev)
	}
}

func TestChangePoint(t *testing.T) {
	vals := []float64{10, 11, 10, 12, 11, 30, 31, 30, 32, 31, 30, 31}
	ev := Evaluate(ChangePoint, months(), vals, true, cfg)
	if !ev.Valid {
		t.Fatal("mean shift not detected")
	}
	if ev.Highlight.Positions[0] != "Jun" {
		t.Errorf("change point at %v, want Jun", ev.Highlight.Positions)
	}
	if Evaluate(ChangePoint, months(), []float64{10, 11, 10, 12, 11, 10, 11, 10, 12, 11, 10, 11}, true, cfg).Valid {
		t.Error("stationary series has no change point")
	}
}

func TestUnimodalityValley(t *testing.T) {
	vals := []float64{100, 80, 55, 30, 12, 28, 52, 78, 95, 98, 99, 100}
	ev := Evaluate(Unimodality, months(), vals, true, cfg)
	if !ev.Valid {
		t.Fatal("valley not detected")
	}
	if ev.Highlight.Label != "valley" || ev.Highlight.Positions[0] != "May" {
		t.Errorf("highlight = %v", ev.Highlight)
	}
}

func TestUnimodalityPeak(t *testing.T) {
	vals := []float64{10, 30, 55, 80, 95, 80, 52, 28, 12, 10, 8, 6}
	ev := Evaluate(Unimodality, months(), vals, true, cfg)
	if !ev.Valid || ev.Highlight.Label != "peak" || ev.Highlight.Positions[0] != "May" {
		t.Fatalf("peak: %+v", ev)
	}
}

func TestUnimodalityRejectsBoundaryExtremumAndNoise(t *testing.T) {
	monotone := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	if Evaluate(Unimodality, keysFor(8), monotone, true, cfg).Valid {
		t.Error("monotone series detected unimodal")
	}
	jagged := []float64{50, 10, 60, 5, 55, 8, 52, 12}
	if Evaluate(Unimodality, keysFor(8), jagged, true, cfg).Valid {
		t.Error("jagged series detected unimodal")
	}
}

func TestEvaluateRejectsNaN(t *testing.T) {
	vals := []float64{1, math.NaN(), 3, 4, 5, 6, 7}
	for tp := Type(0); tp < NumTypes; tp++ {
		if Evaluate(tp, keysFor(7), vals, true, cfg).Valid {
			t.Errorf("%v accepted NaN input", tp)
		}
	}
}

func TestInducedRules(t *testing.T) {
	// A clear valley series: Unimodality holds, Trend does not.
	vals := []float64{100, 80, 55, 30, 12, 28, 52, 78, 95, 98, 99, 100}
	se := EvaluateAll(months(), vals, true, cfg)
	if tp, h := se.Induced(Unimodality); tp != Unimodality || h.Positions[0] != "May" {
		t.Errorf("Induced(Unimodality) = %v %v", tp, h)
	}
	if tp, _ := se.Induced(Trend); tp != OtherPattern {
		t.Errorf("Induced(Trend) = %v, want OtherPattern", tp)
	}
	// Pure noise: nothing holds → NoPattern for every type.
	noise := []float64{2, 8, 8, 10, 2, 9, 6, 1, 7, 1, 5, 2}
	se = EvaluateAll(months(), noise, true, cfg)
	if se.AnyValid() {
		t.Fatalf("noise yields valid types: %+v", se.Holds)
	}
	if tp, _ := se.Induced(Trend); tp != NoPattern {
		t.Errorf("Induced on patternless scope = %v, want NoPattern", tp)
	}
	// A placeholder is no type to ask about.
	defer func() {
		if recover() == nil {
			t.Error("Induced(OtherPattern) did not panic")
		}
	}()
	se.Induced(OtherPattern)
}

// TestHighlightEqual checks highlight identity, the highlight half of Sim
// (Equation 8): same label and same positions, element by element. Joining
// either into one string would merge highlights whose breakdown values or
// label contain the separator.
func TestHighlightEqual(t *testing.T) {
	for _, c := range []struct {
		a, b Highlight
		want bool
	}{
		{Highlight{Positions: []string{"Apr"}, Label: "valley"}, Highlight{Positions: []string{"Apr"}, Label: "valley"}, true},
		{Highlight{Label: "even"}, Highlight{Label: "even", Positions: []string{}}, true},
		{Highlight{Positions: []string{"Apr"}, Label: "valley"}, Highlight{Positions: []string{"Jul"}, Label: "valley"}, false},
		{Highlight{Positions: []string{"Apr"}, Label: "valley"}, Highlight{Positions: []string{"Apr"}, Label: "peak"}, false},
		{Highlight{Positions: []string{"a", "b"}}, Highlight{Positions: []string{"b", "a"}}, false},
		// Breakdown values may hold commas (quoted CSV fields).
		{Highlight{Positions: []string{"a,b", "c"}}, Highlight{Positions: []string{"a", "b,c"}}, false},
		{Highlight{Positions: []string{"a,b"}}, Highlight{Positions: []string{"a", "b"}}, false},
		// Neither may a label's "@" move the boundary between label and positions.
		{Highlight{Label: "x@", Positions: []string{"y"}}, Highlight{Label: "x", Positions: []string{"@y"}}, false},
		{Highlight{Label: "x@y"}, Highlight{Label: "x", Positions: []string{"y"}}, false},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%+v.Equal(%+v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("%+v.Equal(%+v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestTypeMetadata(t *testing.T) {
	if NumTypes != 11 {
		t.Fatalf("paper specifies 11 types, got %d", NumTypes)
	}
	temporalOnly := map[Type]bool{Trend: true, Outlier: true, Seasonality: true, ChangePoint: true, Unimodality: true}
	for tp := Type(0); tp < NumTypes; tp++ {
		if tp.TemporalOnly() != temporalOnly[tp] {
			t.Errorf("%v TemporalOnly = %v", tp, tp.TemporalOnly())
		}
		if !tp.Concrete() {
			t.Errorf("%v should be concrete", tp)
		}
	}
	if OtherPattern.Concrete() || NoPattern.Concrete() {
		t.Error("placeholders must not be concrete")
	}
	if OtherPattern.String() != "Other Pattern" || NoPattern.String() != "No Pattern" {
		t.Error("placeholder names wrong")
	}
}

func TestEvaluateAllMatchesSingleEvaluate(t *testing.T) {
	vals := []float64{100, 80, 55, 30, 12, 28, 52, 78, 95, 98, 99, 100}
	se := EvaluateAll(months(), vals, true, cfg)
	for tp := Type(0); tp < NumTypes; tp++ {
		single := Evaluate(tp, months(), vals, true, cfg)
		if got, _ := se.Induced(tp); single.Valid != (got == tp) {
			t.Errorf("%v: EvaluateAll disagrees with Evaluate", tp)
		}
	}
}

func TestCustomEvaluator(t *testing.T) {
	cfg := DefaultConfig()
	// A "first-half dominance" custom type: the first half of the series
	// holds more than 70% of the total.
	cfg.Custom = append(cfg.Custom, CustomEvaluator{
		Name:         "First-Half Dominance",
		TemporalOnly: true,
		Evaluate: func(keys []string, values []float64) Evaluation {
			total, first := 0.0, 0.0
			for i, v := range values {
				total += v
				if i < len(values)/2 {
					first += v
				}
			}
			if total <= 0 || first/total <= 0.7 {
				return Evaluation{}
			}
			return Evaluation{Valid: true, Highlight: Highlight{Label: "first-half"}, Strength: first / total}
		},
	})
	ct := CustomType(0)
	if cfg.TypeName(ct) != "First-Half Dominance" {
		t.Errorf("TypeName = %q", cfg.TypeName(ct))
	}
	if !ct.Concrete() || ct < NumTypes {
		t.Error("custom type classification wrong")
	}

	frontLoaded := []float64{50, 40, 45, 55, 48, 52, 2, 3, 1, 2, 3, 2}
	se := EvaluateAll(months(), frontLoaded, true, cfg)
	if n := len(se.Holds); n == 0 || se.Holds[n-1].Type != ct {
		t.Fatalf("custom criterion not detected, or not last of the holders: %+v", se.Holds)
	}
	if tp, h := se.Induced(ct); tp != ct || h.Label != "first-half" {
		t.Errorf("Induced = %v %v", tp, h)
	}
	// Temporal-only: the same series on a categorical breakdown is invalid.
	if Evaluate(ct, months(), frontLoaded, false, cfg).Valid {
		t.Error("temporal-only custom type fired on categorical breakdown")
	}
	// A balanced series does not satisfy it; Induced maps to OtherPattern
	// when another type holds.
	even := []float64{100, 101, 99, 100, 102, 100, 98, 100, 101, 99, 100, 100}
	se = EvaluateAll(months(), even, true, cfg)
	if tp, _ := se.Induced(ct); tp == ct {
		t.Error("balanced series flagged as front-loaded")
	}
	if tp, _ := se.Induced(ct); tp != OtherPattern {
		t.Errorf("Induced on even series = %v, want OtherPattern", tp)
	}
}

func TestCustomTypeString(t *testing.T) {
	if CustomType(2).String() != "Custom(2)" {
		t.Errorf("String = %q", CustomType(2).String())
	}
	if OtherPattern >= 0 || NoPattern >= 0 {
		t.Error("placeholders must be negative so custom type IDs are free")
	}
}

func TestEvaluatePanicsOnUnregisteredCustom(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate(CustomType(0), months(), make([]float64, 12), true, DefaultConfig())
}
