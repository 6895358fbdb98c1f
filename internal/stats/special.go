// Package stats is the statistics substrate for MetaInsight's pattern
// evaluators and evaluation harness. It implements, from the standard
// library only: the regularized incomplete beta function, the normal and
// Student t tails, ordinary least squares, median smoothing,
// autocorrelation, KL divergence, and Welch's t-test (used by the user-study
// analysis, Section 5.2.2).
package stats

import (
	"math"
)

const (
	maxIterations = 300
	epsilon       = 3e-14
	fpmin         = 1e-300
)

// RegularizedIncompleteBeta computes I_x(a, b), the regularized incomplete
// beta function, via the continued-fraction expansion (Numerical Recipes
// §6.4). It panics if a or b is not positive; x outside [0,1] is clamped.
func RegularizedIncompleteBeta(a, b, x float64) float64 {
	if a <= 0 || b <= 0 {
		panic("stats: RegularizedIncompleteBeta requires a > 0 and b > 0")
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

// betaContinuedFraction evaluates the continued fraction for the incomplete
// beta function by the modified Lentz method.
func betaContinuedFraction(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIterations; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsilon {
			break
		}
	}
	return h
}

// NormalSF returns the standard normal survival function P(Z > z).
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// StudentTTwoSidedP returns the two-sided p-value P(|T| ≥ |t|) for Student's
// t distribution with df degrees of freedom.
func StudentTTwoSidedP(t, df float64) float64 {
	if math.IsNaN(t) {
		return 1
	}
	x := df / (df + t*t)
	return RegularizedIncompleteBeta(df/2, 0.5, x)
}
