package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"metainsight/internal/dataset"
	"metainsight/internal/model"
)

func boundsTable(seed int64, rows int, negatives bool) *dataset.Table {
	r := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("bounds", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "C", Kind: model.KindCategorical},
		{Name: "Amount", Kind: model.KindMeasure},
	})
	for i := 0; i < rows; i++ {
		v := r.Float64() * 100
		if negatives && r.Intn(5) == 0 {
			v = -v
		}
		b.AddRow([]string{
			fmt.Sprintf("a%d", r.Intn(8)),
			fmt.Sprintf("b%d", r.Intn(5)),
			fmt.Sprintf("c%d", r.Intn(3)),
		}, []float64{v})
	}
	return b.Build()
}

// TestImpactShareUpperBoundSound checks the central soundness property over
// random subspaces and both additive impact measures: the bound never falls
// below the true impact, and the degenerate cases (empty subspace, absent
// value) return their exact values.
func TestImpactShareUpperBoundSound(t *testing.T) {
	tab := boundsTable(3, 1500, false)
	for _, impact := range []model.Measure{model.Count("*"), model.Sum("Amount")} {
		e, err := New(tab, Config{ImpactMeasure: impact})
		if err != nil {
			t.Fatal(err)
		}
		if !e.impactBoundsData().sound {
			t.Fatalf("impact %v: bounds unexpectedly unsound", impact)
		}
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 100; trial++ {
			sub := randomSubspace(r, tab, 1+r.Intn(3))
			h := e.Intern(sub)
			ub := e.ImpactShareUpperBoundAt(h)
			truth, _ := e.ImpactAt(h)
			if truth > ub+1e-12 {
				t.Fatalf("impact %v trial %d [%s]: true impact %g exceeds bound %g",
					impact, trial, sub.Key(), truth, ub)
			}
		}
		if ub := e.ImpactShareUpperBoundAt(e.Intern(model.EmptySubspace)); ub != 1 {
			t.Fatalf("empty subspace bound %g, want 1", ub)
		}
		absent := model.NewSubspace(model.Filter{Dim: "A", Value: "zzz"})
		if ub := e.ImpactShareUpperBoundAt(e.Intern(absent)); ub != 0 {
			t.Fatalf("absent value bound %g, want 0", ub)
		}
	}
}

// TestBoundsDisabledOnNegativeSum pins the soundness guard: SUM impact over
// a column with negative values must disable the bounds (trivial bound 1)
// because subset sums can exceed superset sums.
func TestBoundsDisabledOnNegativeSum(t *testing.T) {
	tab := boundsTable(5, 400, true)
	e, err := New(tab, Config{ImpactMeasure: model.Sum("Amount")})
	if err != nil {
		t.Fatal(err)
	}
	if e.impactBoundsData().sound {
		t.Fatal("bounds claim soundness over a negative-valued SUM column")
	}
	sub := model.NewSubspace(model.Filter{Dim: "A", Value: "a1"})
	if ub := e.ImpactShareUpperBoundAt(e.Intern(sub)); ub != 1 {
		t.Fatalf("unsound bounds returned %g, want trivial 1", ub)
	}
	if m := e.DimMaxImpactShareAt(tab.DimensionIndex("A")); m != 1 {
		t.Fatalf("unsound DimMaxImpactShare returned %g, want trivial 1", m)
	}
}

// TestDimMaxImpactShare pins that the per-dimension bound dominates every
// single-value share and that unknown dimensions get the trivial bound.
func TestDimMaxImpactShare(t *testing.T) {
	tab := boundsTable(9, 800, false)
	e, err := New(tab, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for di, d := range tab.Dimensions() {
		m := e.DimMaxImpactShareAt(di)
		for _, v := range d.Domain() {
			h := e.Intern(model.NewSubspace(model.Filter{Dim: d.Name, Value: v}))
			truth, _ := e.ImpactAt(h)
			if truth > m+1e-12 {
				t.Fatalf("dim %s value %s: impact %g exceeds dim bound %g", d.Name, v, truth, m)
			}
			// Under COUNT impact a single filter's share is its posting set's
			// cardinality over the row count: the impact itself, to the bit.
			if ub := e.ImpactShareUpperBoundAt(h); ub != truth {
				t.Fatalf("dim %s value %s: single-filter bound %g, impact %g", d.Name, v, ub, truth)
			}
		}
	}
	if m := e.DimMaxImpactShareAt(tab.DimensionIndex("NoSuchDim")); m != 1 {
		t.Fatalf("unknown dimension bound %g, want 1", m)
	}
}
