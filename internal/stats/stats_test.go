package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestRegularizedIncompleteBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	approx(t, RegularizedIncompleteBeta(1, 1, 0.3), 0.3, 1e-12, "I_0.3(1,1)")
	// I_x(2,2) = 3x² − 2x³.
	approx(t, RegularizedIncompleteBeta(2, 2, 0.4), 3*0.16-2*0.064, 1e-12, "I_0.4(2,2)")
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	approx(t, RegularizedIncompleteBeta(2.5, 1.5, 0.7),
		1-RegularizedIncompleteBeta(1.5, 2.5, 0.3), 1e-12, "beta symmetry")
	// Boundaries.
	if RegularizedIncompleteBeta(3, 4, 0) != 0 || RegularizedIncompleteBeta(3, 4, 1) != 1 {
		t.Error("beta boundary values wrong")
	}
}

// TestTailFunctions pins the two distribution tails production reads: the
// normal survival function (OutstandingTop/Bottom) and Student t's
// two-sided p-value (OLS, PearsonR, WelchTTest).
func TestTailFunctions(t *testing.T) {
	approx(t, NormalSF(0), 0.5, 1e-12, "SF(0)")
	approx(t, NormalSF(1.644853627), 0.05, 1e-6, "SF(1.645)")
	// The classic 95% critical value for df=10 (2.228).
	approx(t, StudentTTwoSidedP(2.228138852, 10), 0.05, 1e-6, "p(2.228, df=10)")
	// df=1 is Cauchy: P(|T| ≥ 1) = 0.5.
	approx(t, StudentTTwoSidedP(1, 1), 0.5, 1e-10, "p(1, df=1)")
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, Variance(xs), 32.0/7, 1e-12, "variance")
	minV, minI, maxV, maxI := MinMax(xs)
	if minV != 2 || minI != 0 || maxV != 9 || maxI != 7 {
		t.Errorf("MinMax = %v %d %v %d", minV, minI, maxV, maxI)
	}
	if ArgMax(xs) != 7 {
		t.Error("ArgMax wrong")
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("degenerate inputs should be NaN")
	}
}

func TestRankDescending(t *testing.T) {
	idx := RankDescending([]float64{3, 9, 1, 9})
	// Ties broken by index: both 9s, lower index first.
	want := []int{1, 3, 0, 2}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("RankDescending = %v, want %v", idx, want)
		}
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := CoefficientOfVariation([]float64{5, 5, 5}); cv != 0 {
		t.Errorf("CV of constant = %v", cv)
	}
	if cv := CoefficientOfVariation([]float64{-1, 1, -1, 1}); !math.IsInf(cv, 1) {
		t.Errorf("CV with zero mean = %v", cv)
	}
}

func TestNormalizeAndEntropy(t *testing.T) {
	p := Normalize([]float64{1, 1, 2})
	approx(t, Sum(p), 1, 1e-12, "normalize sum")
	u := Normalize([]float64{0, 0})
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Errorf("Normalize of zeros = %v", u)
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	approx(t, KLDivergence(p, p, 1e-9), 0, 1e-9, "KL(p,p)")
	// KL is non-negative for random smoothed distributions.
	f := func(a, b []float64) bool {
		if len(a) < 2 {
			return true
		}
		if len(b) < len(a) {
			return true
		}
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
		}
		return KLDivergence(a, b[:len(a)], 1e-6) >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if SymmetricKL([]float64{1, 0}, []float64{0, 1}, 1e-6) <= 0 {
		t.Error("symmetric KL of disjoint masses must be positive")
	}
}

func TestOLSExactLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit := OLS(x, y)
	approx(t, fit.Slope, 2, 1e-12, "slope")
	approx(t, fit.Intercept, 1, 1e-12, "intercept")
	approx(t, fit.R2, 1, 1e-12, "R2")
	if fit.SlopeP > 1e-9 {
		t.Errorf("perfect line p-value = %v", fit.SlopeP)
	}
}

func TestOLSNoise(t *testing.T) {
	// Pure noise around a constant: slope insignificant.
	y := []float64{5, 4.8, 5.3, 4.9, 5.1, 5.2, 4.7, 5.05}
	fit := OLS(LinSpace(len(y)), y)
	if fit.SlopeP < 0.05 {
		t.Errorf("noise fit significant: p=%v slope=%v", fit.SlopeP, fit.Slope)
	}
	flat := OLS(LinSpace(4), []float64{2, 2, 2, 2})
	if flat.Slope != 0 || flat.SlopeP != 1 {
		t.Errorf("flat series: slope=%v p=%v", flat.Slope, flat.SlopeP)
	}
}

func TestACFPeriodicSignal(t *testing.T) {
	xs := make([]float64, 24)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 6)
	}
	acf := ACFInto(make([]float64, 12), xs)
	// The biased sample ACF attenuates by (n−lag)/n = 18/24, so the peak at
	// the true period sits near 0.75 rather than 1.
	if acf[5] < 0.7 { // lag 6
		t.Errorf("ACF at true period = %v", acf[5])
	}
	if acf[2] > 0 { // lag 3 is anti-phase
		t.Errorf("ACF at half period = %v", acf[2])
	}
}

func TestWelchTTest(t *testing.T) {
	a := []float64{5.1, 5.3, 4.9, 5.2, 5.0, 5.15}
	b := []float64{6.9, 7.2, 7.0, 7.1, 6.8, 7.05}
	res := WelchTTest(a, b)
	if res.P > 1e-6 {
		t.Errorf("clearly separated samples: p = %v", res.P)
	}
	same := WelchTTest(a, a)
	if same.T != 0 || same.P < 0.99 {
		t.Errorf("identical samples: t=%v p=%v", same.T, same.P)
	}
	if WelchTTest([]float64{1}, b).P != 1 {
		t.Error("undersized sample should return p=1")
	}
}

func TestOutstandingTop(t *testing.T) {
	// One dominant value over a smooth tail.
	xs := []float64{100, 20, 18, 16, 15, 14, 13, 12}
	if res := OutstandingTop(xs, 1, 0.05); !res.Significant {
		t.Errorf("dominant leader not significant: p=%v", res.PValue)
	}
	// Smooth power-law-ish series with no leader.
	smooth := []float64{20, 19, 18, 17, 16, 15, 14, 13}
	if res := OutstandingTop(smooth, 1, 0.05); res.Significant {
		t.Errorf("smooth series reported outstanding: p=%v", res.PValue)
	}
	// Two dominant values.
	xs2 := []float64{100, 95, 20, 18, 16, 15, 14, 13}
	if res := OutstandingTop(xs2, 2, 0.05); !res.Significant {
		t.Errorf("top-two not significant: p=%v", res.PValue)
	}
	// lead-th value tied with the tail cannot be outstanding.
	tied := []float64{50, 20, 20, 20, 20, 20, 20}
	if res := OutstandingTop(tied, 2, 0.05); res.Significant {
		t.Error("tied second value reported outstanding")
	}
}

func TestOutstandingBottom(t *testing.T) {
	xs := []float64{20, 19, 18, 17, 16, 15, 14, 0.5}
	if res := OutstandingBottom(xs, 1, 0.05); !res.Significant {
		t.Errorf("dominant-low not significant: p=%v", res.PValue)
	}
	if res := OutstandingBottom(xs[:4], 1, 0.05); res.Significant {
		t.Error("too-short series must not be significant")
	}
}

func TestOutstandingHandlesNegativeValues(t *testing.T) {
	xs := []float64{50, -3, -4, -5, -6, -7, -8}
	res := OutstandingTop(xs, 1, 0.05)
	if !res.Significant {
		t.Errorf("negative-tail leader not significant: p=%v", res.PValue)
	}
}

func TestMedianFilter(t *testing.T) {
	xs := []float64{1, 100, 2, 3, 2, 2}
	mf := MedianFilterInto(make([]float64, len(xs)), nil, xs, 3)
	// The spike at index 1 is removed from the baseline.
	if mf[1] != 2 {
		t.Errorf("MedianFilterInto[1] = %v, want 2", mf[1])
	}
	// Edges use shrunken windows.
	if mf[0] != (1+100)/2.0 {
		t.Errorf("MedianFilterInto[0] = %v", mf[0])
	}
	// Window 1 is the identity and does not write xs.
	want := slices.Clone(xs)
	id := MedianFilterInto(make([]float64, len(xs)), nil, xs, 1)
	if !slices.Equal(id, want) || !slices.Equal(xs, want) {
		t.Errorf("window 1 = %v over %v, want %v", id, xs, want)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
}

func TestMAD(t *testing.T) {
	// Constant series: MAD 0 regardless of one outlier's pull on the mean.
	if m := MADWith(nil, []float64{5, 5, 5, 5, 5}); m != 0 {
		t.Errorf("constant MAD = %v", m)
	}
	// For a standard normal sample the 1.4826 scaling approximates sigma;
	// check a symmetric triangular case exactly: deviations {2,1,0,1,2},
	// median deviation 1.
	got := MADWith(nil, []float64{1, 2, 3, 4, 5})
	if math.Abs(got-1.4826) > 1e-12 {
		t.Errorf("MAD = %v, want 1.4826", got)
	}
	// Robustness: one huge outlier barely moves it.
	if m := MADWith(nil, []float64{1, 2, 3, 4, 1e9}); m > 3 {
		t.Errorf("MAD not robust: %v", m)
	}
	// A working copy of any size serves, and xs is not written.
	xs := []float64{5, 1, 4, 2, 3}
	for _, work := range [][]float64{nil, make([]float64, 2), make([]float64, 8)} {
		if m := MADWith(work, xs); math.Abs(m-1.4826) > 1e-12 {
			t.Errorf("MADWith(work of %d) = %v, want 1.4826", len(work), m)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("MADWith wrote xs: %v", xs)
	}
}

func TestSeasonalStrength(t *testing.T) {
	periodic := make([]float64, 24)
	for i := range periodic {
		periodic[i] = []float64{10, 50, 90, 50}[i%4]
	}
	if s := SeasonalStrengthWith(nil, periodic, 4); s < 0.99 {
		t.Errorf("pure periodic strength = %v", s)
	}
	if s := SeasonalStrengthWith(nil, periodic, 5); s > 0.6 {
		t.Errorf("wrong-period strength = %v", s)
	}
	flat := make([]float64, 12)
	if s := SeasonalStrengthWith(nil, flat, 4); s != 0 {
		t.Errorf("constant series strength = %v", s)
	}
	if s := SeasonalStrengthWith(nil, periodic, 1); s != 0 {
		t.Error("period < 2 must score 0")
	}
	if s := SeasonalStrengthWith(nil, periodic, 24); s != 0 {
		t.Error("period ≥ n must score 0")
	}
}

func TestPearsonR(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 4, 6, 8, 10, 12}
	res := PearsonR(x, y)
	approx(t, res.R, 1, 1e-12, "perfect positive r")
	if res.P > 1e-9 {
		t.Errorf("perfect correlation p = %v", res.P)
	}
	neg := PearsonR(x, []float64{12, 10, 8, 6, 4, 2})
	approx(t, neg.R, -1, 1e-12, "perfect negative r")
	noise := PearsonR(x, []float64{5, 1, 4, 2, 5, 3})
	if noise.P < 0.05 {
		t.Errorf("noise correlation significant: r=%v p=%v", noise.R, noise.P)
	}
	if !math.IsNaN(PearsonR(x, []float64{3, 3, 3, 3, 3, 3}).R) {
		t.Error("constant series must yield NaN correlation")
	}
	if PearsonR([]float64{1, 2}, []float64{1, 2}).P != 1 {
		t.Error("undersized series should be insignificant")
	}
}
