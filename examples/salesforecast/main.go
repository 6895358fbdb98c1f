// Salesforecast: a domain-specific walkthrough on a programmatically built
// multi-measure sales dataset. It shows the Session API end to end —
// custom measure sets, a wall-clock budget, mining statistics, structured
// access to commonnesses and exceptions, and ad-hoc follow-up queries
// through the engine (the "exception as a new entry point" loop of the
// paper's Figure 1).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"metainsight"
)

func main() {
	tab := buildDataset()
	fmt.Printf("dataset %q: %d rows × %d cols\n\n", tab.Name(), tab.Rows(), tab.Cols())

	s, err := metainsight.NewSession(tab)
	if err != nil {
		log.Fatal(err)
	}
	an, err := s.Analyze(context.Background(), metainsight.Request{
		TopK: 8,
		Measures: []metainsight.Measure{
			metainsight.Sum("Sales"),
			metainsight.Sum("Units"),
			metainsight.Avg("Price"),
		},
		Budget: metainsight.Budget{Time: 5 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}

	result := an.Result
	fmt.Printf("mined %d candidates (%d basic patterns, %d queries executed, %d served from cache)\n\n",
		result.Len(), result.Stats.PatternsFound,
		result.Stats.ExecutedQueries, result.Stats.CacheServed)

	top := an.Insights
	for i, in := range top {
		fmt.Printf("%d. [score %.3f] %s\n", i+1, in.Score(), in.Description())
	}

	// Follow up on the first insight that has exceptions: inspect the raw
	// distribution of each exceptional scope, the validation step of an EDA
	// iteration.
	for _, in := range top {
		if !in.HasExceptions() {
			continue
		}
		mi := in.MetaInsight()
		fmt.Printf("\nfollow-up on: %s\n", in.Description())
		eng := an.Engine()
		for _, exc := range mi.Exceptions {
			dp := mi.HDP.Patterns[exc.Index]
			series, err := eng.BasicQuery(dp.Scope)
			if err != nil {
				continue
			}
			fmt.Printf("  %-11s %-45s %s\n", exc.Category, dp.Scope, spark(series.Values))
		}
		break
	}
}

// buildDataset assembles two years of monthly sales with a planted summer
// peak for most regions, a winter-peak region and a flat region.
func buildDataset() *metainsight.Dataset {
	b := metainsight.NewDatasetBuilder("regional-sales", []metainsight.Field{
		{Name: "Region", Kind: metainsight.Categorical},
		{Name: "Product", Kind: metainsight.Categorical},
		{Name: "Month", Kind: metainsight.Temporal},
		{Name: "Sales", Kind: metainsight.MeasureKind},
		{Name: "Units", Kind: metainsight.MeasureKind},
		{Name: "Price", Kind: metainsight.MeasureKind},
	})
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	regions := []string{"North", "South", "East", "West", "Central", "Coastal"}
	products := []string{"Laptop", "Tablet", "Phone", "Monitor"}
	for ri, region := range regions {
		for pi, product := range products {
			for m := range months {
				seasonal := 1 + 0.8*math.Exp(-sq(float64(m)-6)/8) // summer peak
				switch region {
				case "Coastal": // spring peak: the highlight-change exception
					seasonal = 1 + 0.8*math.Exp(-sq(float64(m)-2)/8)
				case "Central": // flat: the type-change exception
					seasonal = 1.4
				}
				base := 100.0 * (1 + 0.2*float64(pi)) * (1 + 0.1*float64(ri))
				sales := base * seasonal
				price := 200 + 150*float64(pi)
				b.AddRow([]string{region, product, months[m]},
					[]float64{sales, sales / price * 100, price})
			}
		}
	}
	return b.Build()
}

func sq(x float64) float64 { return x * x }

// spark renders a tiny unicode bar chart of a series.
func spark(values []float64) string {
	blocks := []rune("▁▂▃▄▅▆▇█")
	minV, maxV := values[0], values[0]
	for _, v := range values {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	out := make([]rune, len(values))
	for i, v := range values {
		idx := 0
		if maxV > minV {
			idx = int((v - minV) / (maxV - minV) * float64(len(blocks)-1))
		}
		out[i] = blocks[idx]
	}
	return string(out)
}
