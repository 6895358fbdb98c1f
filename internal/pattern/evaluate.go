package pattern

import (
	"fmt"
	"math"
	"strconv"

	"metainsight/internal/model"
	"metainsight/internal/stats"
)

// The evaluation criteria's thresholds. Like the paper's implementation
// parameters (Section 4.1) they are fixed values, not settings.
const (
	// alpha is the significance level for the test-based criteria
	// (outstandingness, trend, change point).
	alpha = 0.05
	// evennessCV is the maximum coefficient of variation for a series to be
	// deemed evenly distributed.
	evennessCV = 0.15
	// attributionShare is the share of the total one value must exceed to
	// dominate (a majority).
	attributionShare = 0.5
	// outlierSigma is the 3-sigma rule's multiplier on the residual spread.
	outlierSigma = 3.0
	// outlierMaxFraction caps how many points may be flagged before the
	// "outliers" are considered structure instead.
	outlierMaxFraction = 0.2
	// smoothWindow is the centered moving-average window of the
	// non-parametric regression baseline behind the outlier test.
	smoothWindow = 5
	// seasonalityMinACF is the minimum detrended autocorrelation at the
	// candidate period.
	seasonalityMinACF = 0.5
	// trendMinR2 is the minimum coefficient of determination for a trend.
	trendMinR2 = 0.5
	// unimodalViolationFraction is the tolerated fraction of monotonicity
	// violations on each side of a unimodal extremum.
	unimodalViolationFraction = 0.34
	// unimodalMinProminence is the minimum prominence of the extremum
	// relative to the series range (both endpoints must clear it).
	unimodalMinProminence = 0.25
)

// Config registers the pattern types evaluated beside the paper's eleven.
// Its zero value is the paper's configuration: the built-in types under the
// fixed thresholds above.
type Config struct {
	// Custom holds domain-specific pattern types beyond the paper's eleven
	// (the extensibility hook of Section 3.1). The i-th entry is evaluated
	// as Type CustomType(i); custom types participate in HDPs, Sim,
	// commonness/exception categorization and scoring exactly like
	// built-ins.
	Custom []CustomEvaluator
}

// CustomEvaluator is a user-supplied pattern type. Its criterion must be a
// pure function of its inputs: a Session runs it at most once per (unit,
// measure) and serves every later request from that one evaluation.
type CustomEvaluator struct {
	// Name is the display name used in descriptions.
	Name string
	// TemporalOnly restricts the type to temporal breakdowns.
	TemporalOnly bool
	// Evaluate is the criterion: given the raw data distribution it returns
	// the evaluation result (Valid + Highlight + Strength).
	Evaluate func(keys []string, values []float64) Evaluation
	// EvaluateScope, when set, takes precedence over Evaluate and also
	// receives the data scope under evaluation. Scope-aware evaluators can
	// relate the series to other data — e.g. the correlation pattern fetches
	// a second measure's series for the same scope, the multi-measure
	// analysis class the paper's Section 6 leaves as future work.
	EvaluateScope func(scope model.DataScope, keys []string, values []float64) Evaluation
	// Requires declares measures this evaluator queries beyond the mined
	// measure set (e.g. a correlation evaluator's secondary measure). The
	// engine uses the union of these declarations — Config.RequiredMeasures —
	// to decide which aggregates its scan substrate must materialize: MIN/MAX
	// accumulators exist only for columns some declared measure needs. An
	// evaluator that queries an undeclared MIN/MAX measure gets "unit lacks
	// column" at query time.
	Requires []model.Measure
}

// RequiredMeasures returns the union of every registered custom evaluator's
// Requires declarations, in registration order. It is the needed-aggregate
// contribution of pattern registration, consumed by engine.Config's
// ExtraMeasures when assembling the scan substrate.
func (c Config) RequiredMeasures() []model.Measure {
	var out []model.Measure
	seen := make(map[model.Measure]bool)
	for _, ev := range c.Custom {
		for _, m := range ev.Requires {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// TypeName resolves a type's display name under this configuration,
// including registered custom types.
func (c Config) TypeName(t Type) string {
	if t >= NumTypes && int(t-NumTypes) < len(c.Custom) {
		return c.Custom[t-NumTypes].Name
	}
	return t.String()
}

// NumConcreteTypes returns the total number of concrete types under this
// configuration (built-ins plus custom).
func (c Config) NumConcreteTypes() int { return int(NumTypes) + len(c.Custom) }

// DefaultConfig returns the paper's configuration, which registers no
// custom type.
func DefaultConfig() Config { return Config{} }

// Evaluate runs one type's evaluation criterion on a series. keys and values
// are the raw data distribution of the data scope (breakdown values in domain
// order with their aggregates); temporal says whether the breakdown dimension
// is temporal. It implements Evaluate(ds, type) of Section 3.1. Scope-aware
// custom evaluators receive a zero scope here; use EvaluateScoped when the
// scope is known.
func Evaluate(t Type, keys []string, values []float64, temporal bool, cfg Config) Evaluation {
	return EvaluateScoped(model.DataScope{}, t, keys, values, temporal, cfg)
}

// EvaluateScoped is Evaluate with the data scope made available to
// scope-aware custom evaluators.
func EvaluateScoped(scope model.DataScope, t Type, keys []string, values []float64, temporal bool, cfg Config) Evaluation {
	if len(keys) != len(values) {
		panic("pattern: keys/values length mismatch")
	}
	if t >= NumTypes {
		i := int(t - NumTypes)
		if i >= len(cfg.Custom) {
			panic(fmt.Sprintf("pattern: custom type %v not registered in Config", t))
		}
		ev := cfg.Custom[i]
		if ev.TemporalOnly && !temporal {
			return Evaluation{}
		}
		if hasNonFinite(values) {
			return Evaluation{}
		}
		if ev.EvaluateScope != nil {
			return ev.EvaluateScope(scope, keys, values)
		}
		return ev.Evaluate(keys, values)
	}
	if t.TemporalOnly() && !temporal {
		return Evaluation{}
	}
	if hasNonFinite(values) {
		return Evaluation{}
	}
	switch t {
	case OutstandingFirst:
		return evalOutstanding(keys, values, 1, true)
	case OutstandingLast:
		return evalOutstanding(keys, values, 1, false)
	case OutstandingTop2:
		return evalOutstanding(keys, values, 2, true)
	case OutstandingLast2:
		return evalOutstanding(keys, values, 2, false)
	case Evenness:
		return evalEvenness(values)
	case Attribution:
		return evalAttribution(keys, values)
	case Trend:
		return evalTrend(values)
	case Outlier:
		return evalOutlier(keys, values)
	case Seasonality:
		return evalSeasonality(values)
	case ChangePoint:
		return evalChangePoint(keys, values)
	case Unimodality:
		return evalUnimodality(keys, values)
	default:
		panic(fmt.Sprintf("pattern: Evaluate called with non-concrete type %v", t))
	}
}

// EvaluateAll evaluates every concrete type — the eleven built-ins plus any
// custom types of the Config — on a series and returns the combined scope
// evaluation, which is what the pattern cache stores. Scope-aware custom
// evaluators receive a zero scope; use EvaluateAllScoped when it is known.
func EvaluateAll(keys []string, values []float64, temporal bool, cfg Config) *ScopeEvaluation {
	return EvaluateAllScoped(model.DataScope{}, keys, values, temporal, cfg)
}

func hasNonFinite(values []float64) bool {
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func evalOutstanding(keys []string, values []float64, lead int, top bool) Evaluation {
	if len(values) < lead+3 {
		return Evaluation{}
	}
	var res stats.OutstandingResult
	if top {
		res = stats.OutstandingTop(values, lead, alpha)
	} else {
		res = stats.OutstandingBottom(values, lead, alpha)
	}
	if !res.Significant {
		return Evaluation{}
	}
	order := stats.RankDescending(values)
	positions := make([]string, lead)
	if top {
		for i := 0; i < lead; i++ {
			positions[i] = keys[order[i]]
		}
	} else {
		for i := 0; i < lead; i++ {
			positions[i] = keys[order[len(order)-1-i]]
		}
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Positions: positions},
		Strength:  1 - res.PValue,
	}
}

func evalEvenness(values []float64) Evaluation {
	if len(values) < 3 {
		return Evaluation{}
	}
	cv := stats.CoefficientOfVariation(values)
	if math.IsInf(cv, 1) || cv >= evennessCV {
		return Evaluation{}
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Label: "even"},
		Strength:  1 - cv/evennessCV,
	}
}

func evalAttribution(keys []string, values []float64) Evaluation {
	if len(values) < 3 {
		return Evaluation{}
	}
	total := 0.0
	for _, v := range values {
		if v < 0 {
			// Shares are undefined for mixed-sign series.
			return Evaluation{}
		}
		total += v
	}
	if total <= 0 {
		return Evaluation{}
	}
	i := stats.ArgMax(values)
	share := values[i] / total
	if share <= attributionShare {
		return Evaluation{}
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Positions: []string{keys[i]}},
		Strength:  share,
	}
}

func evalTrend(values []float64) Evaluation {
	if len(values) < 5 {
		return Evaluation{}
	}
	return trendOf(stats.OLS(stats.LinSpace(len(values)), values))
}

// trendOf judges the trend criterion on the series' fit against time.
func trendOf(fit stats.OLSResult) Evaluation {
	if math.IsNaN(fit.Slope) || fit.Slope == 0 {
		return Evaluation{}
	}
	if fit.SlopeP >= alpha || fit.R2 < trendMinR2 {
		return Evaluation{}
	}
	label := "increasing"
	if fit.Slope < 0 {
		label = "decreasing"
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Label: label},
		Strength:  1 - fit.SlopeP,
	}
}

func evalOutlier(keys []string, values []float64) Evaluation {
	if len(values) < 6 {
		return Evaluation{}
	}
	return outlierWith(make([]float64, 3*len(values)), nil, keys, values)
}

// outlierWith is the outlier criterion for a series of n >= 6 points, using
// buf (3n elements) and medbuf (grown as needed) as working space.
func outlierWith(buf, medbuf []float64, keys []string, values []float64) Evaluation {
	n := len(values)
	window := smoothWindow
	if window >= n {
		window = n - 1
	}
	// Running median as the non-parametric regression baseline and a
	// MAD-based robust sigma: neither is contaminated by the outliers the
	// 3-sigma rule is looking for.
	baseline := stats.MedianFilterInto(buf[:n], medbuf, values, window)
	resid := stats.ResidualsInto(buf[n:2*n], values, baseline)
	sd := stats.MADWith(buf[2*n:3*n], resid)
	if sd == 0 || math.IsNaN(sd) {
		sd = stats.StdDev(resid)
	}
	if sd == 0 || math.IsNaN(sd) {
		return Evaluation{}
	}
	var positions []string
	above, below := 0, 0
	worstZ := 0.0
	for i, r := range resid {
		z := r / sd
		if math.Abs(z) > outlierSigma {
			positions = append(positions, keys[i])
			if z > 0 {
				above++
			} else {
				below++
			}
			if math.Abs(z) > worstZ {
				worstZ = math.Abs(z)
			}
		}
	}
	if len(positions) == 0 || float64(len(positions)) > outlierMaxFraction*float64(n) {
		return Evaluation{}
	}
	label := "above"
	switch {
	case above > 0 && below > 0:
		label = "mixed"
	case below > 0:
		label = "below"
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Positions: positions, Label: label},
		Strength:  1 - 2*stats.NormalSF(worstZ),
	}
}

func evalSeasonality(values []float64) Evaluation {
	n := len(values)
	if n < 8 {
		return Evaluation{}
	}
	return seasonalityWith(make([]float64, 3*n), values, stats.OLS(stats.LinSpace(n), values))
}

// seasonalityWith is the seasonality criterion for a series of n >= 8 points
// given its fit against time, using buf (3n elements) as working space.
func seasonalityWith(buf, values []float64, fit stats.OLSResult) Evaluation {
	n := len(values)
	// Detrend first so a strong trend does not masquerade as correlation.
	detrended := buf[:n]
	for i, v := range values {
		detrended[i] = v - (fit.Intercept + fit.Slope*float64(i))
	}
	// Require at least three complete cycles so short noise runs cannot
	// masquerade as a period.
	maxLag := n / 3
	acf := stats.ACFInto(buf[n:n+maxLag], detrended)
	bestLag, bestACF := 0, 0.0
	for lag := 2; lag <= maxLag; lag++ {
		a := acf[lag-1]
		// Require a local maximum so harmonics of shorter periods do not win.
		if lag >= 3 && a <= acf[lag-2] {
			continue
		}
		if a > bestACF {
			bestLag, bestACF = lag, a
		}
	}
	if bestLag == 0 || bestACF < seasonalityMinACF {
		return Evaluation{}
	}
	// Confirm with the explained-variance check: folding the detrended
	// series by the period must remove most of its variance. (The ACF values
	// are no longer needed, so their space is reused.)
	strength := stats.SeasonalStrengthWith(buf[n:], detrended, bestLag)
	if strength < 0.5 {
		return Evaluation{}
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Label: "period=" + strconv.Itoa(bestLag)},
		Strength:  bestACF,
	}
}

func evalChangePoint(keys []string, values []float64) Evaluation {
	n := len(values)
	if n < 6 {
		return Evaluation{}
	}
	bestP, bestIdx := 1.0, -1
	for split := 2; split <= n-2; split++ {
		res := stats.WelchTTest(values[:split], values[split:])
		if !math.IsNaN(res.T) && res.P < bestP {
			bestP, bestIdx = res.P, split
		}
	}
	// Bonferroni correction over the n-3 candidate splits keeps the
	// family-wise false-positive rate at alpha.
	if bestIdx < 0 || bestP*float64(n-3) >= alpha {
		return Evaluation{}
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Positions: []string{keys[bestIdx]}},
		Strength:  1 - bestP,
	}
}

func evalUnimodality(keys []string, values []float64) Evaluation {
	n := len(values)
	if n < 5 {
		return Evaluation{}
	}
	lo, loIdx, hi, hiIdx := stats.MinMax(values)
	rng := hi - lo
	if rng == 0 {
		return Evaluation{}
	}
	if ev, ok := unimodalAt(keys, values, loIdx, "valley", rng); ok {
		return ev
	}
	if ev, ok := unimodalAt(keys, values, hiIdx, "peak", rng); ok {
		return ev
	}
	return Evaluation{}
}

// unimodalAt checks a U-shape (valley) or Λ-shape (peak) with its extremum at
// index idx: the extremum must be interior, both sides must be (tolerantly)
// monotone toward it, and both endpoints must be prominently separated from
// the extremum.
func unimodalAt(keys []string, values []float64, idx int, label string, rng float64) (Evaluation, bool) {
	n := len(values)
	if idx <= 0 || idx >= n-1 {
		return Evaluation{}, false
	}
	sign := 1.0 // valley: values fall then rise
	if label == "peak" {
		sign = -1.0
	}
	// A step only counts as a monotonicity violation when it is material
	// relative to the series range; noisy plateaus (many near-zero
	// wrong-direction steps) must not defeat an otherwise clean U-shape.
	tolerance := 0.08 * rng
	violations := 0
	for i := 0; i < idx; i++ {
		if sign*(values[i+1]-values[i]) > tolerance {
			violations++
		}
	}
	if float64(violations) > unimodalViolationFraction*float64(idx) {
		return Evaluation{}, false
	}
	violations = 0
	for i := idx; i < n-1; i++ {
		if sign*(values[i+1]-values[i]) < -tolerance {
			violations++
		}
	}
	if float64(violations) > unimodalViolationFraction*float64(n-1-idx) {
		return Evaluation{}, false
	}
	promLeft := sign * (values[0] - values[idx]) / rng
	promRight := sign * (values[n-1] - values[idx]) / rng
	if promLeft < unimodalMinProminence || promRight < unimodalMinProminence {
		return Evaluation{}, false
	}
	strength := math.Min(promLeft, promRight)
	if strength > 1 {
		strength = 1
	}
	return Evaluation{
		Valid:     true,
		Highlight: Highlight{Positions: []string{keys[idx]}, Label: label},
		Strength:  strength,
	}, true
}
