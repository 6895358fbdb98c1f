package pattern

import (
	"math"
	"sync"

	"metainsight/internal/model"
	"metainsight/internal/stats"
)

// EvaluateAllScoped is EvaluateAll with the data scope made available to
// scope-aware custom evaluators.
//
// It computes what the per-type EvaluateScoped loop computes — that loop is
// kept as the reference the tests compare against — but shares the work the
// criteria have in common: the series is checked for non-finite values and
// ranked once for all four Outstanding* types, regressed against time once
// for Trend and Seasonality, and every intermediate series lives in pooled
// scratch rather than a fresh allocation. Only the types that hold are copied
// out; a scope where none holds gets a shared empty value and costs no
// allocation.
func EvaluateAllScoped(scope model.DataScope, keys []string, values []float64, temporal bool, cfg Config) *ScopeEvaluation {
	if len(keys) != len(values) {
		panic("pattern: keys/values length mismatch")
	}
	// A non-finite value invalidates every type (custom ones included).
	if hasNonFinite(values) {
		return &noneHold
	}
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	nt := cfg.NumConcreteTypes()
	if cap(sc.evals) < nt {
		sc.evals = make([]Evaluation, nt)
	}
	evals := sc.evals[:nt]
	clear(evals)
	sc.evalBuiltins(evals, keys, values, temporal)
	for i, ev := range cfg.Custom {
		if ev.TemporalOnly && !temporal {
			continue
		}
		if ev.EvaluateScope != nil {
			evals[int(NumTypes)+i] = ev.EvaluateScope(scope, keys, values)
		} else {
			evals[int(NumTypes)+i] = ev.Evaluate(keys, values)
		}
	}
	n := 0
	for _, ev := range evals {
		if ev.Valid {
			n++
		}
	}
	if n == 0 {
		return &noneHold
	}
	holds := make([]Hold, 0, n)
	for t, ev := range evals {
		if ev.Valid {
			holds = append(holds, Hold{Type: Type(t), Evaluation: ev})
		}
	}
	return &ScopeEvaluation{Holds: holds}
}

// noneHold is the one evaluation of every scope where no type holds.
var noneHold ScopeEvaluation

// evalScratch is the working memory of one EvaluateAllScoped call: evals
// holds every type's evaluation until the holders are copied out. Nothing in
// a returned ScopeEvaluation aliases it.
type evalScratch struct {
	evals  []Evaluation
	ints   []int
	floats []float64
	medbuf []float64
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// evalBuiltins evaluates the eleven built-in types on a finite series.
func (sc *evalScratch) evalBuiltins(evals []Evaluation, keys []string, values []float64, temporal bool) {
	n := len(values)
	if cap(sc.ints) < n {
		sc.ints = make([]int, n)
	}
	if cap(sc.floats) < 6*n {
		sc.floats = make([]float64, 6*n)
	}
	f := sc.floats[:6*n]
	desc, asc, logs, work := f[:n], f[n:2*n], f[2*n:3*n], f[3*n:]

	if n >= 4 {
		// Rank once. desc is the series sorted descending; asc is the negated
		// series sorted descending — what the bottom tests rank — obtained by
		// walking the one ranking backwards while keeping runs of equal
		// values in index order, as a stable sort of the negated series does.
		order := stats.RankDescendingInto(sc.ints[:n], values)
		for i, idx := range order {
			desc[i] = values[idx]
			logs[i] = math.Log(float64(i + 1))
		}
		for i, hi := 0, n; hi > 0; {
			lo := hi - 1
			for lo > 0 && values[order[lo-1]] == values[order[hi-1]] {
				lo--
			}
			for _, idx := range order[lo:hi] {
				asc[i] = -values[idx]
				i++
			}
			hi = lo
		}
		for _, o := range [...]struct {
			t      Type
			sorted []float64
			lead   int
			top    bool
		}{
			{OutstandingFirst, desc, 1, true},
			{OutstandingLast, asc, 1, false},
			{OutstandingTop2, desc, 2, true},
			{OutstandingLast2, asc, 2, false},
		} {
			if n < o.lead+3 {
				continue
			}
			p, significant := outstandingSorted(o.sorted, logs, work, o.lead)
			if !significant {
				continue
			}
			positions := make([]string, o.lead)
			for i := range positions {
				if o.top {
					positions[i] = keys[order[i]]
				} else {
					positions[i] = keys[order[n-1-i]]
				}
			}
			evals[o.t] = Evaluation{Valid: true, Highlight: Highlight{Positions: positions}, Strength: 1 - p}
		}
	}

	evals[Evenness] = evalEvenness(values)
	evals[Attribution] = evalAttribution(keys, values)
	if !temporal {
		return
	}
	if n >= 5 {
		// One regression against time serves Trend and Seasonality.
		t := f[:n]
		for i := range t {
			t[i] = float64(i)
		}
		fit := stats.OLS(t, values)
		evals[Trend] = trendOf(fit)
		if n >= 8 {
			evals[Seasonality] = seasonalityWith(work, values, fit)
		}
	}
	if n >= 6 {
		if cap(sc.medbuf) < smoothWindow+1 {
			sc.medbuf = make([]float64, 0, smoothWindow+1)
		}
		evals[Outlier] = outlierWith(work, sc.medbuf, keys, values)
	}
	evals[ChangePoint] = evalChangePoint(keys, values)
	evals[Unimodality] = evalUnimodality(keys, values)
}

// outstandingSorted is the outstandingness test of stats.OutstandingTop on an
// already ranked series: sorted is descending, logs[i] = log(i+1) and resid
// is working space of at least len(sorted) elements. It returns the p-value
// and whether the top lead values are significantly outstanding.
func outstandingSorted(sorted, logs, resid []float64, lead int) (p float64, significant bool) {
	n := len(sorted)
	// The last leader must strictly exceed the first non-leader.
	if sorted[lead-1] <= sorted[lead] {
		return 1, false
	}
	// Fit value = a + b·log(rank) on the non-leading tail.
	lx, ly := logs[lead:n], sorted[lead:]
	fit := stats.OLS(lx, ly)
	if math.IsNaN(fit.Slope) {
		return 1, false
	}
	resid = resid[:len(lx)]
	for i := range lx {
		resid[i] = ly[i] - (fit.Intercept + fit.Slope*lx[i])
	}
	sd := stats.StdDev(resid)
	if sd == 0 || math.IsNaN(sd) {
		return 0, true
	}
	worstZ := math.Inf(1)
	for i := 0; i < lead; i++ {
		z := (sorted[i] - (fit.Intercept + fit.Slope*logs[i])) / sd
		if z < worstZ {
			worstZ = z
		}
	}
	p = stats.NormalSF(worstZ)
	return p, p < alpha
}
