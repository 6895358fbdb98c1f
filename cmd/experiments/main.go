// Command experiments regenerates the paper's evaluation tables and figures
// (Section 5 and the appendix) over the synthetic workloads, printing the
// same rows and series the paper reports.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig6,table4
//	experiments -run fig8 -seed 7
//
// -run takes a comma-separated list of experiments or "all"; -seed seeds
// fig8's rater model and the discussion experiment's trials (default
// 20210620).
//
// Experiments: table1, fig6, fig7, table3, table4, table5, fig8, fig12, icube,
// discussion, pruning.
//
// The extra "smoke" target is a fast CI check: a short-budget run that
// verifies Workers=1 and Workers=8 produce identical results and accounting,
// with and without scan parallelism and an observer, exiting non-zero on any
// mismatch. It is not part of "all". Timing lives in
// benchmark/ (see BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"metainsight/internal/experiments"
)

func main() {
	var (
		run  = flag.String("run", "all", "comma-separated experiments to run (table1, fig6, fig7, table3, table4, table5, fig8, fig12, icube, discussion, pruning, smoke) or 'all'")
		seed = flag.Int64("seed", 20210620, "seed of fig8's rater model and the discussion experiment's trials")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := 0
	w := os.Stdout

	runOne := func(name string, f func()) {
		if !all && !want[name] {
			return
		}
		start := time.Now()
		f()
		fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		ran++
	}

	runOne("table1", func() { experiments.Table1(w) })
	runOne("table5", func() { experiments.Table5(w) })
	runOne("fig6", func() { experiments.Figure6(w) })
	runOne("fig7", func() { experiments.Figure7(w) })
	runOne("table3", func() { experiments.Table3(w) })
	runOne("table4", func() { experiments.Table4(w) })
	runOne("fig8", func() { experiments.Figure8(w, *seed) })
	runOne("fig12", func() { experiments.Figure12(w) })
	runOne("icube", func() { experiments.ICubeComparison(w, 100) })
	runOne("discussion", func() { experiments.Discussion(w, 200, *seed) })
	runOne("pruning", func() { experiments.PruningDefault(w) })
	if want["smoke"] {
		runOne("smoke", func() {
			if err := experiments.Smoke(w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		})
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}
