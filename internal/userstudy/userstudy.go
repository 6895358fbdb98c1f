// Package userstudy simulates the paper's two user studies (Section 5.2)
// with a parameterized rater model, standing in for the 3 expert and 18
// non-expert human participants (see DESIGN.md, substitution 3). The model's
// drivers are exactly the effects the paper's findings identify — structured
// commonness+exception representation raises data-understanding ratings
// (Q1), the presence of exceptions raises follow-up-analysis interest (Q2,
// confirmed with the same Welch t-test the paper applies), conciseness
// drives the FLR comparison (Q3), and information coverage drives perceived
// loss (Q4) — so the reproduction preserves the shape of Figure 8, not human
// opinion itself.
package userstudy

import (
	"math"
	"math/rand"

	"metainsight/internal/core"
	"metainsight/internal/quickinsight"
	"metainsight/internal/stats"
)

// System identifies which system produced an example.
type System int

const (
	// SystemMetaInsight marks structured MetaInsight examples.
	SystemMetaInsight System = iota
	// SystemQuickInsight marks stand-alone QuickInsight examples.
	SystemQuickInsight
)

// Example is the feature view of one study example shown to raters.
type Example struct {
	Name          string
	System        System
	HasExceptions bool
	NumCommonness int
	Conciseness   float64 // [0, 1]
	Impact        float64 // [0, 1]
	// Surprise approximates how contrary the example is to prior knowledge:
	// exceptions carry surprise; stand-alone expected facts do not.
	Surprise float64 // [0, 1]
}

// FromMetaInsight extracts rating-relevant features from a MetaInsight.
func FromMetaInsight(name string, mi *core.MetaInsight) Example {
	surprise := 0.15
	if mi.HasExceptions() {
		// Exceptions convey "surprising" information contrary to prior
		// knowledge (the paper's finding 1).
		surprise = 0.45 + 0.1*float64(len(mi.Exceptions))
		if surprise > 0.9 {
			surprise = 0.9
		}
	}
	impact := mi.ImpactHDS
	if impact > 1 {
		impact = 1
	}
	return Example{
		Name:          name,
		System:        SystemMetaInsight,
		HasExceptions: mi.HasExceptions(),
		NumCommonness: len(mi.CommSet),
		Conciseness:   mi.Conciseness,
		Impact:        impact,
		Surprise:      surprise,
	}
}

// FromQuickInsight extracts features from a stand-alone insight. Expert
// raters found QuickInsight results "often consistent with their prior
// knowledge", hence the low surprise.
func FromQuickInsight(name string, ins *quickinsight.Insight) Example {
	return Example{
		Name:        name,
		System:      SystemQuickInsight,
		Conciseness: 0.6,
		Impact:      ins.Impact,
		Surprise:    0.1 + 0.2*(1-ins.Impact),
	}
}

// Rater draws ratings from the feature-based model. It is deterministic for
// a given seed.
type Rater struct {
	rng    *rand.Rand
	expert bool
}

// NewRater creates a rater; expert raters are harsher and higher-variance,
// matching the paper's expert/non-expert statistics.
func NewRater(seed int64, expert bool) *Rater {
	return &Rater{rng: rand.New(rand.NewSource(seed)), expert: expert}
}

func (r *Rater) clip(v float64) int {
	n := int(math.Round(v))
	if n < 1 {
		return 1
	}
	if n > 5 {
		return 5
	}
	return n
}

// RateQ1 rates "How helpful is this fact for you to understand the data
// characteristics?" on 1..5.
func (r *Rater) RateQ1(ex Example) int {
	var mean, sd float64
	switch ex.System {
	case SystemMetaInsight:
		if r.expert {
			mean, sd = 3.35+0.3*ex.Conciseness+0.8*ex.Surprise, 0.75
		} else {
			mean, sd = 3.8+0.3*ex.Conciseness+0.5*ex.Surprise, 0.55
		}
	default: // QuickInsight: often expected knowledge → low ratings.
		mean, sd = 1.95+0.4*ex.Impact+0.7*ex.Surprise, 0.95
	}
	return r.clip(mean + sd*r.rng.NormFloat64())
}

// RateQ2 rates "To what extent do you feel interested to take follow-up
// analysis?" on 1..5. The presence of exceptions is the dominant driver
// (the paper's finding 2, p = 0.018).
func (r *Rater) RateQ2(ex Example) int {
	var mean, sd float64
	switch ex.System {
	case SystemMetaInsight:
		if ex.HasExceptions {
			mean, sd = 2.6+0.7*ex.Surprise+0.4*ex.Impact, 1.0
		} else {
			mean, sd = 1.9+0.3*ex.Impact, 0.8
		}
		if !r.expert {
			mean += 0.5
			sd += 0.15
		}
	default:
		mean, sd = 1.8+0.5*ex.Impact+0.5*ex.Surprise, 0.9
	}
	return r.clip(mean + sd*r.rng.NormFloat64())
}

// Q3Choice enumerates the answers to "Compared with FLR, how much easier is
// it to gain knowledge by MetaInsight?".
type Q3Choice int

const (
	MuchEasier Q3Choice = iota
	Easier
	Neutral
	Harder
	MuchHarder
)

// String names the choice.
func (c Q3Choice) String() string {
	return [...]string{"much easier", "easier", "neutral", "harder", "much harder"}[c]
}

// RateQ3 draws the FLR-comparison answer; higher conciseness shifts mass
// toward "much easier".
func (r *Rater) RateQ3(ex Example) Q3Choice {
	pMuch := 0.20 + 0.30*ex.Conciseness
	pEasier := 0.48
	pNeutral := 0.28 - 0.25*ex.Conciseness
	pHarder := 0.03
	u := r.rng.Float64()
	switch {
	case u < pMuch:
		return MuchEasier
	case u < pMuch+pEasier:
		return Easier
	case u < pMuch+pEasier+pNeutral:
		return Neutral
	case u < pMuch+pEasier+pNeutral+pHarder:
		return Harder
	default:
		return MuchHarder
	}
}

// Q4Choice enumerates the answers to "Compared with FLR, how much useful
// information is lost by MetaInsight?".
type Q4Choice int

const (
	LossNone Q4Choice = iota
	LossFew
	LossLot
)

// String names the choice.
func (c Q4Choice) String() string {
	return [...]string{"none", "a few", "a lot"}[c]
}

// RateQ4 draws the information-loss answer. MetaInsight's categorization
// preserves the HDP's content, so almost all feedback reports no effective
// loss; exceptions summarized as categories account for the "a few" mass.
func (r *Rater) RateQ4(ex Example) Q4Choice {
	pNone := 0.62 - 0.15*boolTo(ex.HasExceptions)
	pLot := 0.03
	u := r.rng.Float64()
	switch {
	case u < pNone:
		return LossNone
	case u < 1-pLot:
		return LossFew
	default:
		return LossLot
	}
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RatingStats summarizes a rating sample.
type RatingStats struct {
	Mean float64
	Std  float64
	Hist [5]int // counts of ratings 1..5
}

func summarize(ratings []int) RatingStats {
	xs := make([]float64, len(ratings))
	var st RatingStats
	for i, v := range ratings {
		xs[i] = float64(v)
		st.Hist[v-1]++
	}
	st.Mean = stats.Mean(xs)
	st.Std = stats.StdDev(xs)
	return st
}

// ExpertStudyResult is the expert half of Figure 8.
type ExpertStudyResult struct {
	MetaQ1, MetaQ2   RatingStats
	QuickQ1, QuickQ2 RatingStats
	// NoExceptionQ2 vs WithExceptionQ2 back the finding that exceptions
	// drive follow-up interest for experts too.
	NoExceptionQ2, WithExceptionQ2 RatingStats
}

// RunExpertStudy simulates nRaters experts rating both systems' examples.
func RunExpertStudy(seed int64, metaExamples, quickExamples []Example, nRaters int) ExpertStudyResult {
	var mq1, mq2, qq1, qq2, noExc, withExc []int
	for i := 0; i < nRaters; i++ {
		r := NewRater(seed+int64(i)*101, true)
		for _, ex := range metaExamples {
			q1, q2 := r.RateQ1(ex), r.RateQ2(ex)
			mq1 = append(mq1, q1)
			mq2 = append(mq2, q2)
			if ex.HasExceptions {
				withExc = append(withExc, q2)
			} else {
				noExc = append(noExc, q2)
			}
		}
		for _, ex := range quickExamples {
			qq1 = append(qq1, r.RateQ1(ex))
			qq2 = append(qq2, r.RateQ2(ex))
		}
	}
	return ExpertStudyResult{
		MetaQ1: summarize(mq1), MetaQ2: summarize(mq2),
		QuickQ1: summarize(qq1), QuickQ2: summarize(qq2),
		NoExceptionQ2: summarize(noExc), WithExceptionQ2: summarize(withExc),
	}
}

// NonExpertStudyResult is the non-expert half of Figure 8.
type NonExpertStudyResult struct {
	// PerExampleQ1/Q2 are the average ratings per example (the bar charts in
	// the middle row of Figure 8).
	PerExampleQ1, PerExampleQ2 []float64
	Q1, Q2                     RatingStats
	// Q3 and Q4 are answer proportions.
	Q3 [5]float64
	Q4 [3]float64
	// StrongWillingness counts Q2 ratings of 5 (the paper reports 30/162).
	StrongWillingness int
	TotalQ2Ratings    int
	// ExceptionTTest is the Welch t-test of Q2 ratings, with-exceptions vs
	// without (the paper reports p = 0.018).
	ExceptionTTest stats.WelchTTestResult
}

// RunNonExpertStudy simulates nRaters non-experts rating the MetaInsight
// examples (the non-expert study rates only MetaInsight, using FLR as the
// Q3/Q4 reference).
func RunNonExpertStudy(seed int64, examples []Example, nRaters int) NonExpertStudyResult {
	res := NonExpertStudyResult{
		PerExampleQ1: make([]float64, len(examples)),
		PerExampleQ2: make([]float64, len(examples)),
	}
	var allQ1, allQ2 []int
	var q3Counts [5]int
	var q4Counts [3]int
	var withExc, noExc []float64
	perQ1 := make([][]int, len(examples))
	perQ2 := make([][]int, len(examples))
	for i := 0; i < nRaters; i++ {
		r := NewRater(seed+int64(i)*211, false)
		for e, ex := range examples {
			q1, q2 := r.RateQ1(ex), r.RateQ2(ex)
			perQ1[e] = append(perQ1[e], q1)
			perQ2[e] = append(perQ2[e], q2)
			allQ1 = append(allQ1, q1)
			allQ2 = append(allQ2, q2)
			q3Counts[r.RateQ3(ex)]++
			q4Counts[r.RateQ4(ex)]++
			if q2 == 5 {
				res.StrongWillingness++
			}
			if ex.HasExceptions {
				withExc = append(withExc, float64(q2))
			} else {
				noExc = append(noExc, float64(q2))
			}
		}
	}
	for e := range examples {
		res.PerExampleQ1[e] = summarize(perQ1[e]).Mean
		res.PerExampleQ2[e] = summarize(perQ2[e]).Mean
	}
	res.Q1 = summarize(allQ1)
	res.Q2 = summarize(allQ2)
	total := float64(len(allQ1))
	for i, c := range q3Counts {
		res.Q3[i] = float64(c) / total
	}
	for i, c := range q4Counts {
		res.Q4[i] = float64(c) / total
	}
	res.TotalQ2Ratings = len(allQ2)
	res.ExceptionTTest = stats.WelchTTest(withExc, noExc)
	return res
}
