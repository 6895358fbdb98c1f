package engine

// Impact-sum pruning bounds. For each (dimension, code) pair the engine can
// precompute the impact measure's exact sum over that value's rows, built
// lazily on first use: for a COUNT impact measure that sum is the cardinality
// of the value's posting set, an integer the index already holds; a SUM
// impact measure takes one deterministic O(dims × rows) pass. Because the
// impact measure is additive and (when these bounds are enabled) non-negative,
// the share of any single filter is an upper bound on the impact of every
// conjunctive subspace containing that filter:
//
//	Impact(s) = m(rows(s)) / m(all)  ≤  min over f∈s of m(rows(f)) / m(all)
//
// since rows(s) ⊆ rows(f) and summing non-negative values over a subset never
// exceeds the superset's sum. The miner uses these bounds to discard frontier
// candidates below its impact thresholds before issuing any query
// (Config.EnableBoundPruning): a cut candidate's true impact is ≤ its bound,
// so it would have been discarded by the same threshold after the scan —
// bound pruning is result-identical to scan-then-prune by construction.
//
// Soundness guard: COUNT is always non-negative; SUM over a column containing
// a negative value is not (a subset's sum can exceed the superset's), so the
// bounds are disabled — every query returns the trivial bound 1 — when the
// impact column has any negative entry. The check is one pass at build time
// and deterministic.

import (
	"sync"

	"metainsight/internal/model"
)

// impactBounds caches the per-(dimension, code) impact shares of one engine.
type impactBounds struct {
	once  sync.Once
	sound bool
	share [][]float64 // dimension index -> code -> impact share of total
	max   []float64   // dimension index -> max share over its codes
}

func (e *Engine) impactBoundsData() *impactBounds {
	b := &e.bnd
	b.once.Do(func() {
		var vals []float64
		if e.impact.Agg != model.AggCount {
			vals = e.tab.MeasureColumn(e.impact.Column).Values()
			for _, v := range vals {
				if v < 0 {
					return // b.sound stays false: bounds disabled
				}
			}
		} else {
			e.tab.BuildPostings() // every value's posting set is counted below
		}
		b.share = make([][]float64, len(e.tab.Dimensions()))
		b.max = make([]float64, len(e.tab.Dimensions()))
		for di, d := range e.tab.Dimensions() {
			sums := make([]float64, d.Cardinality())
			if vals == nil {
				for code := range sums {
					sums[code] = float64(d.PostingsBitmap(code).Cardinality())
				}
			} else {
				for r, code := range d.Codes() {
					sums[code] += vals[r]
				}
			}
			maxShare := 0.0
			for i := range sums {
				sums[i] /= e.totalImp
				if sums[i] > maxShare {
					maxShare = sums[i]
				}
			}
			b.share[di] = sums
			b.max[di] = maxShare
		}
		b.sound = true
	})
	return b
}

// ImpactShareUpperBoundAt returns a deterministic upper bound on the impact
// of h's subspace without scanning: the minimum single-filter impact share
// across its filters (1 for the empty subspace or when the bounds are
// unsound, exactly 0 for a filter value absent from its column). The bound
// is a pure function of the immutable table and the subspace.
func (e *Engine) ImpactShareUpperBoundAt(h *Handle) float64 {
	if h.Len() == 0 {
		return 1
	}
	b := e.impactBoundsData()
	if !b.sound {
		return 1
	}
	ub := 1.0
	for _, f := range h.filters {
		if f.dim < 0 {
			return 1
		}
		if f.code < 0 {
			return 0 // no rows match: impact is exactly zero
		}
		if sh := b.share[f.dim][f.code]; sh < ub {
			ub = sh
		}
	}
	return ub
}

// DimMaxImpactShareAt returns the largest single-value impact share of the
// dimension with table index dim: an upper bound on the impact of any
// subspace filtering on that dimension. Returns 1 when the bounds are unsound
// or the index is negative (an unknown dimension). The miner uses it to skip
// an entire frontier expansion scan when even the dimension's heaviest value
// cannot reach MinSubspaceImpact.
func (e *Engine) DimMaxImpactShareAt(dim int) float64 {
	b := e.impactBoundsData()
	if !b.sound || dim < 0 {
		return 1
	}
	return b.max[dim]
}
