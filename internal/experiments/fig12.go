package experiments

import (
	"io"

	"metainsight/internal/core"
	"metainsight/internal/dataset"
	"metainsight/internal/workload"
)

// Fig12Point is one τ value of Figure 12 (Appendix 9.3).
type Fig12Point struct {
	Tau float64
	// AfterMining is the proportion of the τ=0.3 MetaInsight set that
	// remains valid at this τ.
	AfterMining float64
	// AfterRanking is the proportion of the τ=0.3 top-k suggestion that is
	// still suggested at this τ.
	AfterRanking float64
}

// Fig12Result holds the τ-sensitivity curves.
type Fig12Result struct {
	PerDataset map[string][]Fig12Point
	Average    []Fig12Point
}

// Fig12Taus is the τ grid of the appendix experiment.
var Fig12Taus = []float64{0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70}

// Figure12Datasets measures how the identified MetaInsights change as τ
// increases (Appendix 9.3): mining once at τ=0.3 yields the reference set
// and the stored HDPs; each higher τ re-categorizes those HDPs (by
// Definition 3.5, the result at a higher τ is a strict subset), and the
// top-k suggestion is re-ranked.
func Figure12Datasets(w io.Writer, tables []*dataset.Table, k int) Fig12Result {
	res := Fig12Result{PerDataset: map[string][]Fig12Point{}}
	sums := make([]Fig12Point, len(Fig12Taus))
	fprintf(w, "Figure 12 — proportion of identified MetaInsights as τ increases (k=%d)\n", k)
	fprintf(w, "%-15s %-13s", "dataset", "series")
	for _, tau := range Fig12Taus {
		fprintf(w, " %6.2f", tau)
	}
	fprintf(w, "\n")
	for _, tab := range tables {
		setup := FullFunctionality()
		setup.Tau = 0.3
		run, _ := setup.Run(tab)
		reference := run.All()
		refTop := keySet(topKByGreedy(reference, k))

		points := make([]Fig12Point, 0, len(Fig12Taus))
		for _, tau := range Fig12Taus {
			var retained []*core.MetaInsight
			for _, mi := range reference {
				if re, ok := core.BuildMetaInsight(mi.HDP, mi.ImpactHDS, tau); ok {
					retained = append(retained, re)
				}
			}
			afterMining := float64(len(retained)) / float64(len(reference))
			top := topKByGreedy(retained, k)
			kept := 0
			for _, mi := range top {
				if refTop[mi.Key()] {
					kept++
				}
			}
			afterRanking := float64(kept) / float64(len(refTop))
			points = append(points, Fig12Point{Tau: tau, AfterMining: afterMining, AfterRanking: afterRanking})
		}
		res.PerDataset[tab.Name()] = points
		for i, p := range points {
			sums[i].Tau = p.Tau
			sums[i].AfterMining += p.AfterMining
			sums[i].AfterRanking += p.AfterRanking
		}
		fprintf(w, "%-15s %-13s", tab.Name(), "after mining")
		for _, p := range points {
			fprintf(w, " %6.3f", p.AfterMining)
		}
		fprintf(w, "\n%-15s %-13s", "", "after ranking")
		for _, p := range points {
			fprintf(w, " %6.3f", p.AfterRanking)
		}
		fprintf(w, "\n")
	}
	n := float64(len(tables))
	for i := range sums {
		sums[i].AfterMining /= n
		sums[i].AfterRanking /= n
	}
	res.Average = sums
	fprintf(w, "%-15s %-13s", "AVERAGE", "after mining")
	for _, p := range sums {
		fprintf(w, " %6.3f", p.AfterMining)
	}
	fprintf(w, "\n%-15s %-13s", "", "after ranking")
	for _, p := range sums {
		fprintf(w, " %6.3f", p.AfterRanking)
	}
	fprintf(w, "\n\n")
	return res
}

// Figure12 runs the τ-sensitivity experiment on the four large datasets
// with the appendix's k = 10.
func Figure12(w io.Writer) Fig12Result {
	return Figure12Datasets(w, workload.FourLargeDatasets(), 10)
}

func keySet(mis []*core.MetaInsight) map[string]bool {
	out := make(map[string]bool, len(mis))
	for _, mi := range mis {
		out[mi.Key()] = true
	}
	return out
}
