package stats

import (
	"math"
	"sort"
)

// OLSResult holds an ordinary-least-squares fit y ≈ Intercept + Slope·x.
type OLSResult struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
	SlopeT    float64 // t statistic of the slope
	SlopeP    float64 // two-sided p-value of the slope (H0: slope = 0)
	N         int
}

// OLS fits a simple linear regression of y on x. It requires at least three
// points for the slope significance test; with fewer, SlopeP is 1.
func OLS(x, y []float64) OLSResult {
	if len(x) != len(y) {
		panic("stats: OLS length mismatch")
	}
	n := len(x)
	res := OLSResult{N: n, SlopeP: 1}
	if n < 2 {
		res.Slope = math.NaN()
		res.Intercept = Mean(y)
		return res
	}
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		res.Slope = math.NaN()
		res.Intercept = my
		return res
	}
	res.Slope = sxy / sxx
	res.Intercept = my - res.Slope*mx
	if syy == 0 {
		// A perfectly flat series: the fit is exact but the slope is zero,
		// so there is no trend to report.
		res.R2 = 1
		res.SlopeT = 0
		res.SlopeP = 1
		return res
	}
	ssRes := syy - res.Slope*sxy
	if ssRes < 0 {
		ssRes = 0
	}
	res.R2 = 1 - ssRes/syy
	if n > 2 {
		se2 := ssRes / float64(n-2) / sxx
		if se2 <= 0 {
			res.SlopeT = math.Inf(sign(res.Slope))
			res.SlopeP = 0
		} else {
			res.SlopeT = res.Slope / math.Sqrt(se2)
			res.SlopeP = StudentTTwoSidedP(res.SlopeT, float64(n-2))
		}
	}
	return res
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// LinSpace returns [0, 1, ..., n-1] as float64s, the default regressor for
// time-series fits.
func LinSpace(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// MedianFilterInto writes the centered running median of xs with the given
// window (forced odd; window 1 copies xs) into out, which must have len(xs)
// elements, and returns it. Edges use a shrunken window. Unlike a moving
// average, the median baseline is not contaminated by the very outliers the
// 3-sigma rule is trying to detect. buf is working space that grows to the
// window as needed.
func MedianFilterInto(out, buf []float64, xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		buf = append(buf[:0], xs[lo:hi+1]...)
		out[i] = Median(buf)
	}
	return out
}

// Median returns the median of xs; it sorts the input in place. NaN for an
// empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// MADWith returns the median absolute deviation of xs scaled by 1.4826, the
// robust standard-deviation estimate used by the outlier pattern. work is
// its working copy, replaced when it has fewer than len(xs) elements; xs is
// not written.
func MADWith(work, xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if len(work) < len(xs) {
		work = make([]float64, len(xs))
	}
	work = work[:len(xs)]
	copy(work, xs)
	m := Median(work)
	for i, x := range xs {
		work[i] = math.Abs(x - m)
	}
	return 1.4826 * Median(work)
}

// SeasonalStrengthWith measures how much variance a candidate period
// explains: 1 − Var(xs − phase means)/Var(xs), in [0, 1] (clamped). A pure
// periodic signal scores 1; white noise scores near (period−1)/(n−1). work
// is its working space, replaced when it has fewer than len(xs)+period
// elements.
func SeasonalStrengthWith(work, xs []float64, period int) float64 {
	n := len(xs)
	if period < 2 || period >= n {
		return 0
	}
	total := Variance(xs)
	if total == 0 || math.IsNaN(total) {
		return 0
	}
	if len(work) < n+period {
		work = make([]float64, n+period)
	}
	// Every phase ph < period occurs (period < n), ceil((n-ph)/period) times.
	phaseSum, resid := work[:period], work[period:period+n]
	clear(phaseSum)
	for i, x := range xs {
		phaseSum[i%period] += x
	}
	for i, x := range xs {
		ph := i % period
		resid[i] = x - phaseSum[ph]/float64((n-ph+period-1)/period)
	}
	s := 1 - Variance(resid)/total
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// ResidualsInto writes xs - fit, element-wise, into out, which must have
// len(xs) elements, and returns it.
func ResidualsInto(out, xs, fit []float64) []float64 {
	if len(xs) != len(fit) {
		panic("stats: Residuals length mismatch")
	}
	for i := range xs {
		out[i] = xs[i] - fit[i]
	}
	return out
}

// ACFInto writes the sample autocorrelation of xs at lags 1..len(out) into
// out and returns it: out[0] is lag 1. Lags beyond len(xs)-2 are zero.
func ACFInto(out, xs []float64) []float64 {
	n, maxLag := len(xs), len(out)
	clear(out)
	if n < 2 {
		return out
	}
	m := Mean(xs)
	denom := 0.0
	for _, x := range xs {
		denom += (x - m) * (x - m)
	}
	if denom == 0 {
		return out
	}
	for lag := 1; lag <= maxLag && lag < n; lag++ {
		num := 0.0
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - m) * (xs[i+lag] - m)
		}
		out[lag-1] = num / denom
	}
	return out
}

// OutstandingResult reports the outcome of the outstandingness test used by
// the Outstanding-#1/#Last/Top-2/Last-2 pattern types.
type OutstandingResult struct {
	Significant bool
	PValue      float64
}

// OutstandingTop tests whether the top `lead` values of xs are outstandingly
// larger than the rest, in the spirit of QuickInsights' power-law null
// hypothesis: the non-leading values, ranked descending, are fit with
// value = a + b·log(rank) (a power-law-style decay in rank, fit in value
// space so that negative and shifted series are handled uniformly); the
// residual of the leading value(s) against the extrapolated fit is compared
// to the tail's residual spread, yielding a Gaussian p-value. alpha is the
// significance threshold (e.g. 0.05).
func OutstandingTop(xs []float64, lead int, alpha float64) OutstandingResult {
	n := len(xs)
	if n < lead+3 || lead < 1 {
		return OutstandingResult{Significant: false, PValue: 1}
	}
	order := RankDescending(xs)
	sorted := make([]float64, n)
	for i, idx := range order {
		sorted[i] = xs[idx]
	}
	// Guard against a "leader" that is not actually separated from the tail:
	// the last leader must strictly exceed the first non-leader.
	if sorted[lead-1] <= sorted[lead] {
		return OutstandingResult{Significant: false, PValue: 1}
	}
	// Fit value = a + b·log(rank) on the non-leading tail.
	lx := make([]float64, 0, n-lead)
	ly := make([]float64, 0, n-lead)
	for i := lead; i < n; i++ {
		lx = append(lx, math.Log(float64(i+1)))
		ly = append(ly, sorted[i])
	}
	fit := OLS(lx, ly)
	if math.IsNaN(fit.Slope) {
		return OutstandingResult{Significant: false, PValue: 1}
	}
	resid := make([]float64, len(lx))
	for i := range lx {
		resid[i] = ly[i] - (fit.Intercept + fit.Slope*lx[i])
	}
	sd := StdDev(resid)
	if sd == 0 || math.IsNaN(sd) {
		// A perfectly regular tail: any strict leader separation is
		// infinitely surprising under the null.
		return OutstandingResult{Significant: true, PValue: 0}
	}
	// The leading values must each exceed their extrapolated prediction, and
	// jointly be significant; use the weakest leader's z-score.
	worstZ := math.Inf(1)
	for i := 0; i < lead; i++ {
		pred := fit.Intercept + fit.Slope*math.Log(float64(i+1))
		z := (sorted[i] - pred) / sd
		if z < worstZ {
			worstZ = z
		}
	}
	p := NormalSF(worstZ)
	return OutstandingResult{Significant: p < alpha, PValue: p}
}

// OutstandingBottom tests whether the bottom `lead` values of xs are
// outstandingly smaller than the rest, by negating and re-using
// OutstandingTop.
func OutstandingBottom(xs []float64, lead int, alpha float64) OutstandingResult {
	neg := make([]float64, len(xs))
	for i, x := range xs {
		neg[i] = -x
	}
	return OutstandingTop(neg, lead, alpha)
}

// PearsonResult reports a correlation test between two paired series.
type PearsonResult struct {
	R float64 // Pearson correlation coefficient
	T float64 // t statistic under H0: r = 0
	P float64 // two-sided p-value
	N int
}

// PearsonR computes the Pearson correlation of two equal-length series and
// its significance (t = r·√((n−2)/(1−r²)) against Student's t with n−2
// degrees of freedom). It backs the multi-measure correlation pattern — the
// "scatter plot" analysis class the paper's Section 6 identifies as beyond
// single-measure data scopes.
func PearsonR(x, y []float64) PearsonResult {
	if len(x) != len(y) {
		panic("stats: PearsonR length mismatch")
	}
	n := len(x)
	res := PearsonResult{N: n, P: 1, R: math.NaN()}
	if n < 3 {
		return res
	}
	mx, my := Mean(x), Mean(y)
	sxx, syy, sxy := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return res // a constant series has no defined correlation
	}
	r := sxy / math.Sqrt(sxx*syy)
	res.R = r
	if r >= 1 || r <= -1 {
		res.T = math.Inf(sign(r))
		res.P = 0
		return res
	}
	res.T = r * math.Sqrt(float64(n-2)/(1-r*r))
	res.P = StudentTTwoSidedP(res.T, float64(n-2))
	return res
}
