package stats

import (
	"math"
	"slices"
	"sort"
)

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs; NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs; NaN if len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the minimum and maximum of xs along with their indices.
// For an empty slice it returns NaNs and -1 indices.
func MinMax(xs []float64) (minVal float64, minIdx int, maxVal float64, maxIdx int) {
	if len(xs) == 0 {
		return math.NaN(), -1, math.NaN(), -1
	}
	minVal, maxVal = xs[0], xs[0]
	for i, x := range xs[1:] {
		if x < minVal {
			minVal, minIdx = x, i+1
		}
		if x > maxVal {
			maxVal, maxIdx = x, i+1
		}
	}
	return minVal, minIdx, maxVal, maxIdx
}

// ArgMax returns the index of the maximum of xs, or -1 for an empty slice.
func ArgMax(xs []float64) int {
	_, _, _, i := MinMax(xs)
	return i
}

// RankDescending returns the indices of xs sorted by value in descending
// order (ties broken by index for determinism).
func RankDescending(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}

// RankDescendingInto is RankDescending into dst, which must have len(xs)
// elements. It sorts with a typed comparison rather than sort.SliceStable's
// reflection-built swapper, so it allocates nothing; a stable sort's result
// is unique, so both return the same order. xs must not contain NaN.
func RankDescendingInto(dst []int, xs []float64) []int {
	for i := range dst {
		dst[i] = i
	}
	slices.SortStableFunc(dst, func(a, b int) int {
		switch {
		case xs[a] > xs[b]:
			return -1
		case xs[a] < xs[b]:
			return 1
		}
		return 0
	})
	return dst
}

// CoefficientOfVariation returns StdDev/|Mean|; +Inf when the mean is zero
// and the values vary, 0 when all values are zero.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	sd := StdDev(xs)
	if m == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / math.Abs(m)
}

// Normalize scales xs so it sums to 1, returning a fresh slice. If the sum is
// zero (or the slice is empty) it returns a uniform distribution.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	total := Sum(xs)
	if total == 0 {
		if len(xs) == 0 {
			return out
		}
		u := 1 / float64(len(xs))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, x := range xs {
		out[i] = x / total
	}
	return out
}

// KLDivergence returns the Kullback-Leibler divergence D(p‖q) in bits, with
// additive smoothing eps applied to both distributions so that zero entries
// in q do not produce infinities (i³'s KL-based similarity needs this; the
// paper notes i³'s "failure of applying KL-distance to negative values" —
// negative inputs are clamped to zero before smoothing).
func KLDivergence(p, q []float64, eps float64) float64 {
	if len(p) != len(q) {
		panic("stats: KLDivergence length mismatch")
	}
	ps := smoothed(p, eps)
	qs := smoothed(q, eps)
	d := 0.0
	for i := range ps {
		d += ps[i] * math.Log2(ps[i]/qs[i])
	}
	return d
}

// SymmetricKL returns D(p‖q) + D(q‖p), the symmetrized KL distance used by
// the i³ baseline to compare raw data distributions.
func SymmetricKL(p, q []float64, eps float64) float64 {
	return KLDivergence(p, q, eps) + KLDivergence(q, p, eps)
}

func smoothed(p []float64, eps float64) []float64 {
	out := make([]float64, len(p))
	scale := 0.0
	for _, v := range p {
		if v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	total := 0.0
	for i, v := range p {
		if v < 0 {
			v = 0
		}
		// Pre-scaling by the maximum keeps the running total finite even
		// for inputs near the float64 range limit.
		out[i] = v/scale + eps
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// WelchTTestResult reports the outcome of a two-sample Welch t-test.
type WelchTTestResult struct {
	T  float64 // t statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest performs a two-sample t-test with unequal variances. It is used
// to reproduce the paper's exception/Q2 correlation test (p = 0.018).
func WelchTTest(a, b []float64) WelchTTestResult {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return WelchTTestResult{T: math.NaN(), DF: math.NaN(), P: 1}
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	se2 := va/na + vb/nb
	if se2 == 0 {
		if ma == mb {
			return WelchTTestResult{T: 0, DF: na + nb - 2, P: 1}
		}
		return WelchTTestResult{T: math.Inf(1), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / math.Sqrt(se2)
	df := se2 * se2 / ((va*va)/(na*na*(na-1)) + (vb*vb)/(nb*nb*(nb-1)))
	return WelchTTestResult{T: t, DF: df, P: StudentTTwoSidedP(t, df)}
}
