// Command metainsight mines the top-k MetaInsights from a CSV file and
// prints them with their commonness/exception structure.
//
// Usage:
//
//	metainsight -csv data.csv [-k 10] [-budget 10s] [-tau 0.5] [-depth 3]
//	            [-max-card 50] [-derive Date] [-skip-ragged] [-skip-bad-measures]
//	            [-flat] [-json] [-report report.md] [-trace run.jsonl] [-metrics]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -h lists every flag with its meaning and default. Mining runs on 8
// workers and each scan on one goroutine per core; the results are the same
// at any layout, so neither is a flag.
//
// Exit codes:
//
//	0  the run completed normally
//	1  the run failed (bad usage, unreadable input)
//	3  the run was interrupted (SIGINT/SIGTERM): mining stopped cleanly at
//	   the next unit commit and the trace and metrics epilogue still ran.
//	   The printed insights are the partial best-effort output; re-run to
//	   mine to the end. A second signal kills the process immediately.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"metainsight"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("metainsight", flag.ContinueOnError)
	var (
		csvPath = fs.String("csv", "", "path to the CSV file to analyze (required)")
		k       = fs.Int("k", 10, "number of MetaInsights to suggest")
		budget  = fs.Duration("budget", 15*time.Second, "mining time budget (0 = unlimited)")
		tau     = fs.Float64("tau", 0.5, "commonness threshold τ")
		depth   = fs.Int("depth", 3, "maximum subspace filters")
		maxCard = fs.Int("max-card", 100, "drop categorical columns with more distinct values")
		flat    = fs.Bool("flat", false, "also print each insight's flat-list representation")
		asJSON  = fs.Bool("json", false, "emit the suggested insights as a JSON array")
		derive  = fs.String("derive", "", "derive Year/Quarter/Month/Weekday columns from this date column before mining")
		report  = fs.String("report", "", "write a markdown EDA report to this file")
		trace   = fs.String("trace", "", "write the structured run trace (JSONL, commit order) to this file")
		metrics = fs.Bool("metrics", false, "print the metrics snapshot (counters, gauges, phase timers) after the run")
		ragged  = fs.Bool("skip-ragged", false, "skip-and-count rows whose column count differs from the header instead of failing")
		badMeas = fs.Bool("skip-bad-measures", false, "skip-and-count rows with NaN/Inf/unparseable measure cells instead of failing")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf = fs.String("memprofile", "", "write a heap profile taken after mining to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: metainsight -csv data.csv [flags]")
		fmt.Fprintln(fs.Output(), "exit codes: 0 completed, 1 failed, 3 interrupted by SIGINT/SIGTERM")
		fmt.Fprintln(fs.Output(), "            (partial output)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		// ContinueOnError already printed the error (and usage for -h).
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if *csvPath == "" {
		fs.Usage()
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metainsight:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "metainsight:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// Deferred so the profile reflects live memory after mining and
		// ranking, whatever exit path the run takes.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "metainsight:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "metainsight:", err)
			}
			f.Close()
		}()
	}

	loadOpts := []metainsight.LoadOption{
		metainsight.WithMaxDimensionCardinality(*maxCard),
	}
	if *ragged {
		loadOpts = append(loadOpts, metainsight.WithRaggedRows(metainsight.RowSkip))
	}
	if *badMeas {
		loadOpts = append(loadOpts, metainsight.WithBadMeasures(metainsight.RowSkip))
	}
	tab, err := metainsight.OpenCSV(*csvPath, loadOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metainsight:", err)
		return 1
	}
	if ls := tab.LoadStats(); ls.RaggedSkipped > 0 || ls.BadMeasureSkipped > 0 {
		fmt.Fprintf(os.Stderr, "metainsight: skipped %d ragged and %d bad-measure rows (%d loaded)\n",
			ls.RaggedSkipped, ls.BadMeasureSkipped, ls.RowsLoaded)
	}
	if *derive != "" {
		tab, err = metainsight.DeriveTemporal(tab, *derive)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metainsight:", err)
			return 1
		}
	}
	fmt.Printf("dataset %q: %d rows × %d cols (%d cells)\n",
		tab.Name(), tab.Rows(), tab.Cols(), tab.Cells())
	for _, f := range tab.Fields() {
		fmt.Printf("  %-30s %s\n", f.Name, f.Kind)
	}

	req := metainsight.Request{
		TopK:       *k,
		Budget:     metainsight.Budget{Time: *budget},
		Tau:        *tau,
		MaxFilters: *depth,
	}
	if *trace != "" || *metrics {
		obOpts := metainsight.ObserverOptions{}
		if *trace != "" {
			obOpts.TraceCapacity = 1 << 16
		}
		req.Observer = metainsight.NewObserver(obOpts)
	}
	sess, err := metainsight.NewSession(tab)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metainsight:", err)
		return 1
	}
	// SIGINT/SIGTERM cancel the mining context: the engine stops at the next
	// unit commit, the epilogue below still flushes the trace and metrics,
	// and the exit
	// code is 3. stop() restores default signal disposition, so a second
	// signal kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	an, err := sess.Analyze(ctx, req)
	if err != nil {
		// Bad options: nothing below is trustworthy.
		fmt.Fprintln(os.Stderr, "metainsight:", err)
		return 1
	}
	result, top, ob := an.Result, an.Insights, req.Observer

	// observability epilogue: trace file, metrics snapshot, stats one-liner.
	// In JSON mode the extras go to stderr so stdout stays parseable.
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "metainsight:", err)
		return 1
	}
	epilogue := func(w *os.File) int {
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return fail(err)
			}
			if err := ob.Trace().WriteJSONL(f); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fmt.Fprintf(w, "\ntrace: %d events written to %s (%d dropped by ring)\n",
				ob.Trace().Len(), *trace, ob.Trace().Dropped())
		}
		if *metrics {
			fmt.Fprintf(w, "\n%s\n", an.Snapshot().Text())
		}
		fmt.Fprintf(w, "\nstats: %s\n", result.Stats)
		if result.Stats.Cancelled {
			fmt.Fprintln(os.Stderr,
				"metainsight: interrupted: mining stopped at the last unit commit; output is partial (exit 3)")
			return 3
		}
		return 0
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(top); err != nil {
			return fail(err)
		}
		return epilogue(os.Stderr)
	}

	fmt.Printf("\nmined %d MetaInsight candidates in %v (%d queries executed, %d cache-served)\n\n",
		result.Len(), time.Since(start).Round(time.Millisecond),
		result.Stats.ExecutedQueries, result.Stats.CacheServed)

	for i, in := range top {
		fmt.Printf("%2d. [score %.3f] %s\n", i+1, in.Score(), in.Description())
		if *flat {
			for _, line := range in.FlatList() {
				fmt.Printf("      - %s\n", line)
			}
		}
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return fail(err)
		}
		if err := an.WriteReport(f, tab.Name()); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Printf("\nreport written to %s\n", *report)
	}

	return epilogue(os.Stdout)
}
