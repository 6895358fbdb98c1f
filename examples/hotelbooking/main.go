// Hotelbooking: progressive mining on the largest evaluation dataset (over
// one million cells). The paper's mining procedure is budgeted and
// progressive — it returns the best-so-far MetaInsights when the time budget
// expires — so this example runs the same dataset under increasing budgets
// and shows how the result set converges, the Figure 6 story in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"metainsight"
	"metainsight/internal/workload"
)

func main() {
	tab := workload.HotelBooking()
	fmt.Printf("dataset %q: %d rows × %d cols (%d cells)\n\n",
		tab.Name(), tab.Rows(), tab.Cols(), tab.Cells())

	// One session serves every run below: the dataset is loaded and indexed
	// once, and a unit one run scanned, and a scope it evaluated, serve the
	// later ones, while each Analyze call gets a fresh ledger and budget.
	ctx := context.Background()
	sess, err := metainsight.NewSession(tab)
	if err != nil {
		log.Fatal(err)
	}

	// Reference run: no budget, all optimizations on.
	start := time.Now()
	ref, err := sess.Analyze(ctx, metainsight.Request{TopK: 5})
	if err != nil {
		log.Fatal(err)
	}
	fullWall := time.Since(start)
	full := ref.Result
	golden := full.Keys()
	fmt.Printf("unbudgeted run: %d MetaInsights in %v (%.0f cost units, %d scans)\n\n",
		len(golden), fullWall.Round(time.Millisecond), full.Stats.CostUsed, full.Stats.ExecutedQueries)

	fmt.Printf("%-22s %12s %10s %10s\n", "budget (cost units)", "discovered", "precision", "wall")
	for _, frac := range []float64{0.05, 0.15, 0.35, 0.70, 1.0} {
		budget := frac * full.Stats.CostUsed
		t0 := time.Now()
		an, err := sess.Analyze(ctx, metainsight.Request{
			Budget: metainsight.Budget{Cost: budget},
		})
		if err != nil {
			log.Fatal(err)
		}
		hit := 0
		for key := range an.Result.Keys() {
			if golden[key] {
				hit++
			}
		}
		fmt.Printf("%-22.0f %12d %10.3f %10v\n",
			budget, an.Result.Len(), float64(hit)/float64(len(golden)),
			time.Since(t0).Round(time.Millisecond))
	}

	fmt.Println("\ntop suggestions from the unbudgeted run:")
	for i, in := range ref.Insights {
		fmt.Printf("%d. [score %.3f] %s\n", i+1, in.Score(), in.Description())
	}
}
