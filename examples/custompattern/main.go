// Custompattern: extending MetaInsight with a domain-specific pattern type
// (the extensibility hook of the paper's Section 3.1). A retail analyst
// defines a "Weekend Lift" pattern — Saturday and Sunday revenue at least
// 1.5× the weekday average — and MetaInsight organizes it across store
// sibling groups into commonness and exceptions like any built-in type.
package main

import (
	"context"
	"fmt"
	"log"

	"metainsight"
)

func main() {
	tab := buildStores()

	weekendLift := metainsight.CustomPattern{
		Name:         "Weekend Lift",
		TemporalOnly: true,
		Evaluate: func(keys []string, values []float64) metainsight.PatternEvaluation {
			if len(keys) != 7 {
				return metainsight.PatternEvaluation{}
			}
			weekday, weekend := 0.0, 0.0
			for i, v := range values {
				if keys[i] == "Sat" || keys[i] == "Sun" {
					weekend += v / 2
				} else {
					weekday += v / 5
				}
			}
			if weekday <= 0 || weekend < 1.5*weekday {
				return metainsight.PatternEvaluation{}
			}
			return metainsight.PatternEvaluation{
				Valid:     true,
				Highlight: metainsight.Highlight{Label: "weekend-lift"},
				Strength:  weekend / weekday / 3,
			}
		},
	}

	s, err := metainsight.NewSession(tab, metainsight.WithCustomPatternTypes(weekendLift))
	if err != nil {
		log.Fatal(err)
	}
	an, err := s.Analyze(context.Background(), metainsight.Request{
		TopK:     6,
		Measures: []metainsight.Measure{metainsight.Sum("Revenue")},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d MetaInsights (built-in + custom types)\n\n", an.Result.Len())
	for i, in := range an.Insights {
		fmt.Printf("%d. [score %.3f] %s\n", i+1, in.Score(), in.Description())
	}
}

// buildStores plants weekend lift at most stores; the airport store sells
// evenly through the week (no commute shoppers), and the downtown store
// peaks midweek.
func buildStores() *metainsight.Dataset {
	b := metainsight.NewDatasetBuilder("store-revenue", []metainsight.Field{
		{Name: "Store", Kind: metainsight.Categorical},
		{Name: "Weekday", Kind: metainsight.Temporal},
		{Name: "Revenue", Kind: metainsight.MeasureKind},
	})
	days := []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}
	shape := map[string][]float64{
		"lift": {100, 95, 105, 100, 110, 210, 190},
		"even": {120, 118, 122, 120, 119, 121, 120},
		"mid":  {90, 140, 210, 150, 95, 80, 70},
	}
	stores := map[string]string{
		"Maple": "lift", "Oak": "lift", "Pine": "lift", "Cedar": "lift", "Elm": "lift",
		"Airport": "even", "Downtown": "mid",
	}
	for store, kind := range stores {
		for d, day := range days {
			b.AddRow([]string{store, day}, []float64{shape[kind][d]})
		}
	}
	return b.Build()
}
