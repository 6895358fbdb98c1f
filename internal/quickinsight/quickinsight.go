// Package quickinsight reimplements the QuickInsights baseline (Ding et al.,
// SIGMOD 2019) that MetaInsight extends and is evaluated against: each
// insight is a stand-alone 4-tuple (subspace, breakdown, measure, type) with
// no structured organization across sibling scopes. The implementation
// shares MetaInsight's pattern evaluators and query engine so that the
// Figure 7 query-count comparison isolates exactly the cost the HDP layer
// adds, and the user study comparison presents both systems from the same
// substrate.
package quickinsight

import (
	"sort"

	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/miner"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
)

// Insight is QuickInsight's 4-tuple result (plus the highlight our basic
// data patterns carry, which QuickInsights folds into the type semantics).
type Insight struct {
	Scope     model.DataScope
	Type      pattern.Type
	Highlight pattern.Highlight
	// Significance grades the pattern evaluation (1 − p-value style).
	Significance float64
	// Impact is the subspace's impact (Equation 2).
	Impact float64
	// Score ranks insights: impact × significance, QuickInsights' scoring
	// shape.
	Score float64
}

// Config configures a QuickInsight mining run. Everything else — pattern
// evaluation, the breakdown cardinality cap, the subspace impact floor — is
// miner.DefaultConfig()'s, so comparisons with the MetaInsight miner are
// like-for-like.
type Config struct {
	// MaxSubspaceFilters bounds the subspace depth; 0 is the miner's default.
	MaxSubspaceFilters int
}

// Result is the outcome of a QuickInsight run.
type Result struct {
	Insights        []*Insight
	ExecutedQueries int64
	CostUsed        float64
}

// TopK returns the k highest-scoring insights.
func (r *Result) TopK(k int) []*Insight {
	if k > len(r.Insights) {
		k = len(r.Insights)
	}
	return r.Insights[:k]
}

// Mine enumerates data scopes impact-first (the same best-first frontier the
// MetaInsight miner uses) and evaluates every pattern type on each scope.
// Unlike MetaInsight it stops there: no HDS extension, no HDP evaluation.
func Mine(eng *engine.Engine, cfg Config) *Result {
	defaults := miner.DefaultConfig()
	maxFilters := cfg.MaxSubspaceFilters
	if maxFilters == 0 {
		maxFilters = defaults.MaxSubspaceFilters
	}
	tab := eng.Table()
	led := &ledger{charged: make(map[cache.UnitID]bool)}

	type frontierItem struct {
		subspace  model.Subspace
		impact    float64
		maxDimIdx int
	}
	queue := []frontierItem{{subspace: model.EmptySubspace, impact: 1, maxDimIdx: -1}}
	var insights []*Insight

	for len(queue) > 0 {
		// Pop the highest-impact frontier item (linear scan: the frontier
		// here is small relative to query cost, and determinism matters).
		best := 0
		for i, it := range queue {
			if it.impact > queue[best].impact {
				best = i
			}
		}
		item := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		h := eng.Intern(item.subspace)

		for bdim, col := range tab.Dimensions() {
			if item.subspace.Has(col.Name) || col.Cardinality() < 3 ||
				col.Cardinality() > defaults.MaxBreakdownCardinality {
				continue
			}
			temporal := col.Kind == model.KindTemporal
			unit := led.query(eng, h, bdim)
			for _, meas := range eng.Measures() {
				ds := model.DataScope{Subspace: item.subspace, Breakdown: col.Name, Measure: meas}
				series, err := eng.Extract(unit, ds)
				if err != nil || series.Len() < 3 {
					continue
				}
				se := pattern.EvaluateAllScoped(ds, series.Keys, series.Values, temporal, defaults.Pattern)
				led.charge(engine.EvaluationCost)
				for _, h := range se.Holds {
					insights = append(insights, &Insight{
						Scope:        ds,
						Type:         h.Type,
						Highlight:    h.Highlight,
						Significance: h.Strength,
						Impact:       item.impact,
						Score:        item.impact * h.Strength,
					})
				}
			}
		}

		if item.subspace.Len() >= maxFilters {
			continue
		}
		dims := tab.Dimensions()
		for idx := item.maxDimIdx + 1; idx < len(dims); idx++ {
			dim := dims[idx]
			if item.subspace.Has(dim.Name) || dim.Cardinality() > defaults.MaxBreakdownCardinality {
				continue
			}
			unit := led.query(eng, h, idx)
			impacts := eng.GroupImpactsAt(h, idx, unit)
			for gi, code := range unit.Codes {
				imp := impacts[gi] / eng.TotalImpact()
				if imp < defaults.MinSubspaceImpact {
					continue
				}
				queue = append(queue, frontierItem{
					subspace:  item.subspace.With(dim.Name, dim.Value(int(code))),
					impact:    imp,
					maxDimIdx: idx,
				})
			}
		}
	}

	sort.Slice(insights, func(i, j int) bool {
		if insights[i].Score != insights[j].Score {
			return insights[i].Score > insights[j].Score
		}
		ki := insights[i].Scope.Key() + insights[i].Type.String()
		kj := insights[j].Scope.Key() + insights[j].Type.String()
		return ki < kj
	})
	return &Result{
		Insights:        insights,
		ExecutedQueries: led.executed,
		CostUsed:        float64(led.costNanos) / 1e9,
	}
}

// ledger is one run's charges. The run is single-threaded, so it charges
// inline and issue order is the canonical order.
type ledger struct {
	charged   map[cache.UnitID]bool // the units this run has charged
	executed  int64
	costNanos int64 // cost in nano-units, truncated per charge
}

func (l *ledger) charge(cost float64) { l.costNanos += int64(cost * 1e9) }

// query is the paper's BasicQuery as QuickInsights issues it, charged to the
// run's ledger: a unit the run has charged before is served for free; any
// other is one executed scan at the cost ScanCostAt charges, whatever the
// engine's memo already holds.
func (l *ledger) query(eng *engine.Engine, h *engine.Handle, bdim int) cache.Unit {
	u := eng.MaterializeUnitAt(h, bdim, nil)
	k := eng.UnitIDAt(h, bdim)
	if l.charged[k] {
		return u
	}
	l.charged[k] = true
	l.executed++
	l.charge(eng.ScanCostAt(h))
	return u
}
