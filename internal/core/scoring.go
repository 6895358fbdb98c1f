package core

import (
	"math"
)

// The scoring parameters of Section 4.1 ("Parameters in our
// implementation") other than τ, which each run sets: k = 3, r = 1 and
// γ = 0.1 are the paper's constants.
const (
	// paperK is the number of exception categories k.
	paperK = 3
	// paperR is the balancing parameter r between commonness and exception
	// complexity in Equation 13.
	paperR = 1.0
	// paperGamma is the actionability regularization γ of Equation 16,
	// penalizing MetaInsights without exceptions; it must satisfy
	// S + γ ≤ S* for all MetaInsights, for which 0 < γ < 1 + 0.5·log₂(k)
	// suffices at τ = 0.5.
	paperGamma = 0.1
)

// EntropyS computes S of Equation 13 in bits:
//
//	S = −( Σ αᵢ·log₂ αᵢ + r·Σ βⱼ·log₂ βⱼ )
func EntropyS(alphas, betas []float64, r float64) float64 {
	s := 0.0
	for _, a := range alphas {
		if a > 0 {
			s -= a * math.Log2(a)
		}
	}
	for _, b := range betas {
		if b > 0 {
			s -= r * b * math.Log2(b)
		}
	}
	return s
}

// SMax computes S*(τ), the tight upper bound of S over all MetaInsight
// representations (Lemma 4.1):
//
//	S*(τ) = −log₂ τ + r·k·τ^{1/r}·log₂(e)/e            if k < (1−τ)·e/τ^{1/r}
//	S*(τ) = −τ·log₂ τ − r·(1−τ)·log₂((1−τ)/k)          otherwise
//
// S*(τ) is continuous and monotonically decreasing in τ (Corollary 4.1.1).
func SMax(tau, r float64, k int) float64 {
	if tau <= 0 || tau >= 1 {
		panic("core: SMax requires 0 < tau < 1")
	}
	if r <= 0 || k < 1 {
		panic("core: SMax requires r > 0 and k >= 1")
	}
	kf := float64(k)
	threshold := (1 - tau) * math.E / math.Pow(tau, 1/r)
	if kf < threshold {
		return -math.Log2(tau) + r*kf*math.Pow(tau, 1/r)*math.Log2(math.E)/math.E
	}
	return -tau*math.Log2(tau) - r*(1-tau)*math.Log2((1-tau)/kf)
}

// ConcisenessReg computes the regularized conciseness of Equation 16 at
// commonness threshold tau:
//
//	Conciseness = 1 − (S + γ·1[no exceptions]) / S*(τ)
//
// The result is clamped into [0, 1] against floating-point drift.
func ConcisenessReg(entropy float64, noExceptions bool, tau float64) float64 {
	smax := SMax(tau, paperR, paperK)
	s := entropy
	if noExceptions {
		s += paperGamma
	}
	c := 1 - s/smax
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// Score computes Equation 18 with the paper's f(x) = x and g(x) = x, except
// that g clamps at 1: a measure-extended HDS repeats one subspace |M| times,
// so the raw impact sum of Equation 17 may exceed 1, and g must stay within
// [0, 1].
func Score(conciseness, impactHDS float64) float64 {
	g := impactHDS
	if g > 1 {
		g = 1
	}
	if g < 0 {
		g = 0
	}
	return conciseness * g
}

// Scoring is Equations 13-18 applied to one partition of an HDP: S, the
// regularized conciseness and the score.
type Scoring struct {
	Entropy     float64
	Conciseness float64
	Score       float64
}

// ScoreCounts scores an HDP from the sizes of its partition, the one
// definition of Equations 13-18 over a partition that the miner and
// BuildMetaInsight share: classes holds the size of each Sim-equivalence
// class of the HDP's type, in first-seen order, and others and nones count
// the scopes that induced OtherPattern and NoPattern. The classes whose
// share exceeds tau are the commonnesses, the others highlight changes. It
// returns false when the HDP yields no MetaInsight: fewer than two patterns,
// or no commonness.
func ScoreCounts(classes []int, others, nones int, impactHDS, tau float64) (Scoring, bool) {
	n := others + nones
	for _, c := range classes {
		n += c
	}
	if n < 2 {
		return Scoring{}, false
	}
	// Most HDPs have a commonness or two and at most three exception
	// categories; the arrays keep their proportions off the heap.
	var alphaBuf [4]float64
	var betaBuf [3]float64
	alphas, betas := alphaBuf[:0], betaBuf[:0]
	total := float64(n)
	highlightChanges := 0
	for _, c := range classes {
		if ratio := float64(c) / total; ratio > tau {
			alphas = append(alphas, ratio)
		} else {
			highlightChanges += c
		}
	}
	if len(alphas) == 0 {
		return Scoring{}, false
	}
	for _, c := range [...]int{highlightChanges, others, nones} {
		if c > 0 {
			betas = append(betas, float64(c)/total)
		}
	}
	var sc Scoring
	sc.Entropy = EntropyS(alphas, betas, paperR)
	sc.Conciseness = ConcisenessReg(sc.Entropy, len(betas) == 0, tau)
	sc.Score = Score(sc.Conciseness, impactHDS)
	return sc, true
}
