package experiments

import (
	"io"

	"metainsight/internal/engine"
	"metainsight/internal/icube"
	"metainsight/internal/model"
	"metainsight/internal/workload"
)

// ICubeResult reproduces the empirical analysis of Appendix 9.2: among i³'s
// top outputs on the Air Pollution Emissions dataset, how many exceptions
// are miscategorized by the KL-over-raw-distributions similarity, and how
// many results are trivial (degenerate zero-column comparisons). The paper
// reports 12/100 miscategorized and 25/100 trivial — over one third of i³'s
// results being less useful for EDA.
type ICubeResult struct {
	TopN           int
	Trivial        int
	Miscategorized int // among non-trivial top results
	LessUsefulPct  float64
	// Example findings for qualitative inspection (Figures 11a-d analogs).
	TopTrivialKey     string
	TopMiscategorized string
	TotalResults      int
}

// ICubeComparison runs the refined i³ on Air Pollution Emissions and scores
// its top-N outputs.
func ICubeComparison(w io.Writer, topN int) ICubeResult {
	tab := workload.AirPollution()
	eng, err := engine.New(tab, engine.Config{})
	if err != nil {
		panic(err)
	}
	results := icube.Mine(eng, model.Sum("SO2"))
	res := ICubeResult{TopN: topN, TotalResults: len(results)}
	if topN > len(results) {
		topN = len(results)
		res.TopN = topN
	}
	var exTrivial, exMisc *icube.Result
	for _, r := range results[:topN] {
		switch {
		case r.Trivial():
			res.Trivial++
			if res.TopTrivialKey == "" {
				res.TopTrivialKey = r.Key()
				exTrivial = r
			}
		case r.MiscategorizedAgainstReference():
			res.Miscategorized++
			if res.TopMiscategorized == "" {
				res.TopMiscategorized = r.Key()
				exMisc = r
			}
		}
	}
	res.LessUsefulPct = float64(res.Trivial+res.Miscategorized) / float64(res.TopN) * 100

	fprintf(w, "Appendix 9.2 — i³ comparison on %s (top %d of %d results)\n",
		tab.Name(), res.TopN, res.TotalResults)
	fprintf(w, "  trivial results (degenerate zero-column pairs): %d/%d\n", res.Trivial, res.TopN)
	fprintf(w, "  miscategorized exceptions (KL vs dominance semantics): %d/%d\n", res.Miscategorized, res.TopN)
	fprintf(w, "  less useful for EDA: %.0f%% (the paper reports over 1/3)\n", res.LessUsefulPct)
	if res.TopTrivialKey != "" {
		fprintf(w, "  e.g. trivial: %s\n", res.TopTrivialKey)
	}
	if res.TopMiscategorized != "" {
		fprintf(w, "  e.g. miscategorized: %s\n", res.TopMiscategorized)
	}
	if exTrivial != nil {
		fprintf(w, "\ntop trivial result (Figure 11c/d analog — identical degenerate distributions):\n%s", icube.Render(exTrivial, 40))
	}
	if exMisc != nil {
		fprintf(w, "\ntop miscategorized result (Figure 11a/b analog):\n%s", icube.Render(exMisc, 40))
	}
	fprintf(w, "\n")
	return res
}

// Table5 prints the user-study dataset descriptions (Table 5).
func Table5(w io.Writer) []string {
	fprintf(w, "Table 5 — dataset description\n")
	fprintf(w, "%-28s %-10s %6s %5s\n", "dataset", "user group", "#rows", "#cols")
	groups := []string{"Expert", "Non-expert", "Non-expert", "Non-expert"}
	var out []string
	for i, tab := range workload.UserStudyDatasets() {
		line := workload.TableDescription(tab)
		out = append(out, line)
		fprintf(w, "%-28s %-10s %6d %5d\n", tab.Name(), groups[i], tab.Rows(), tab.Cols())
	}
	fprintf(w, "\n")
	return out
}
