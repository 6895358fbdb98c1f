package experiments

import (
	"io"

	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/quickinsight"
	"metainsight/internal/workload"
)

// Fig7Row is one dataset's bar pair in Figure 7.
type Fig7Row struct {
	Dataset      string
	Cells        int
	QuickInsight int64 // executed queries
	// MetaInsight counts executed queries under the paper's module-feeding
	// schedule (pattern units strictly first), the configuration whose
	// accounting matches Figure 7: the MetaInsight module's augmented and
	// HDS queries come on top of the pattern-mining workload.
	MetaInsight int64
	ExtraPct    float64
	// MetaInsightMerged counts executed queries under this implementation's
	// default merged priority queue, where augmented prefetches also serve
	// the pattern module — MetaInsight then needs FEWER queries than
	// QuickInsight (a divergence documented in EXPERIMENTS.md).
	MetaInsightMerged int64
	MergedExtraPct    float64
}

// Fig7Result is the Figure 7 query-count comparison.
type Fig7Result struct {
	Rows []Fig7Row
	// AvgExtraPct is MetaInsight's average extra query cost over
	// QuickInsight (the paper reports 17.1%).
	AvgExtraPct float64
	// AvgExtraPctLarge restricts the average to the largest datasets, where
	// cache utilization is best (the paper reports 7.9%).
	AvgExtraPctLarge float64
}

// Figure7Datasets runs both systems to completion on each dataset and
// compares total executed queries. QuickInsight runs on its own fresh engine
// (its own cache), exactly as a stand-alone deployment would.
func Figure7Datasets(w io.Writer, tables []*dataset.Table) Fig7Result {
	var res Fig7Result
	fprintf(w, "Figure 7 — emitted queries, QuickInsight vs MetaInsight\n")
	fprintf(w, "%-28s %10s %13s %12s %8s %12s %8s\n",
		"dataset", "cells", "QuickInsight", "MetaInsight", "extra", "MI(merged)", "extra")
	var sumExtra, sumExtraLarge float64
	var nLarge int
	for _, tab := range tables {
		qiEng, err := engine.New(tab, engine.Config{})
		if err != nil {
			panic(err)
		}
		qi := quickinsight.Mine(qiEng, quickinsight.Config{})

		pf := FullFunctionality()
		pf.PatternsFirst = true
		mi, _ := pf.Run(tab)
		merged, _ := FullFunctionality().Run(tab)

		extra := float64(mi.Stats.ExecutedQueries-qi.ExecutedQueries) / float64(qi.ExecutedQueries) * 100
		mergedExtra := float64(merged.Stats.ExecutedQueries-qi.ExecutedQueries) / float64(qi.ExecutedQueries) * 100
		row := Fig7Row{
			Dataset:           tab.Name(),
			Cells:             tab.Cells(),
			QuickInsight:      qi.ExecutedQueries,
			MetaInsight:       mi.Stats.ExecutedQueries,
			ExtraPct:          extra,
			MetaInsightMerged: merged.Stats.ExecutedQueries,
			MergedExtraPct:    mergedExtra,
		}
		res.Rows = append(res.Rows, row)
		sumExtra += extra
		if workload.BucketLabel(tab.Cells()) == "1M+" || workload.BucketLabel(tab.Cells()) == "100k-1M" {
			sumExtraLarge += extra
			nLarge++
		}
		fprintf(w, "%-28s %10d %13d %12d %7.1f%% %12d %7.1f%%\n",
			tab.Name(), tab.Cells(), qi.ExecutedQueries, mi.Stats.ExecutedQueries, extra,
			merged.Stats.ExecutedQueries, mergedExtra)
	}
	if len(res.Rows) > 0 {
		res.AvgExtraPct = sumExtra / float64(len(res.Rows))
	}
	if nLarge > 0 {
		res.AvgExtraPctLarge = sumExtraLarge / float64(nLarge)
	}
	fprintf(w, "average extra cost: %.1f%%   on large datasets: %.1f%%\n\n",
		res.AvgExtraPct, res.AvgExtraPctLarge)
	return res
}

// Figure7 runs the comparison over the full 35-dataset suite.
func Figure7(w io.Writer) Fig7Result {
	return Figure7Datasets(w, workload.Suite())
}
