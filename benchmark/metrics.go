package main

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json; quick_test.go checks the two against each
// other and against what a run prints. README.md defines each metric and
// says which end-to-end number a per-layer one should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it is a regression; per-layer metrics have
	// none.
	Bound float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.2},
	{"ops_per_s", "1/s", "higher", 0.2},
	{"cpu_ms_per_op", "ms", "lower", 0.2},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"score_at_budget", "score", "higher", 0.001},
}

var perLayer = []metricDef{
	{"workload.gen_ms", "ms", "lower", 0},
	{"workload.csv_write_ms", "ms", "lower", 0},
	{"workload.csv_mb", "MB", "lower", 0},

	{"dataset.load_ms", "ms", "lower", 0},
	{"dataset.load_rows_per_s", "1/s", "higher", 0},
	{"dataset.load_alloc_mb", "MB", "lower", 0},
	{"dataset.index_build_ms", "ms", "lower", 0},
	{"dataset.postings_bytes_per_row", "B", "lower", 0},

	{"engine.substrate_build_ms", "ms", "lower", 0},
	{"engine.scan_f0_ms", "ms", "lower", 0},
	{"engine.scan_f1_ms", "ms", "lower", 0},
	{"engine.scan_f2_ms", "ms", "lower", 0},
	{"engine.scan_aug_ms", "ms", "lower", 0},
	{"engine.rescan_f2_ms", "ms", "lower", 0},
	{"engine.rows_per_s_f0", "1/s", "higher", 0},
	{"engine.queries_executed", "count", "lower", 0},
	{"engine.queries_served", "count", "higher", 0},

	{"cache.query_hit_rate", "ratio", "higher", 0},
	{"cache.pattern_hit_rate", "ratio", "higher", 0},
	{"cache.query_entries", "count", "lower", 0},
	{"cache.evictions", "count", "lower", 0},

	{"pattern.evaluate_all_us", "us", "lower", 0},
	{"pattern.evals_per_op", "count", "lower", 0},

	{"miner.mine_ms", "ms", "lower", 0},
	{"miner.units_committed", "count", "lower", 0},
	{"miner.cost_units", "cost", "lower", 0},
	{"miner.pruned_p1", "count", "higher", 0},
	{"miner.mi_found", "count", "higher", 0},
	{"miner.first_insight_ms", "ms", "lower", 0},
	{"miner.t90_ms", "ms", "lower", 0},

	{"obs.phase_expand_ms", "ms", "lower", 0},
	{"obs.phase_evaluate_ms", "ms", "lower", 0},
	{"obs.phase_commit_ms", "ms", "lower", 0},
	{"obs.phase_rank_ms", "ms", "lower", 0},

	{"ranker.rank_ms", "ms", "lower", 0},
	{"ranker.pool", "count", "lower", 0},
	{"render.json_ms", "ms", "lower", 0},
	{"render.json_kb", "kB", "lower", 0},
	{"render.report_ms", "ms", "lower", 0},

	{"session.new_us", "us", "lower", 0},
	{"session.self_ms", "ms", "lower", 0},

	{"serve.light_p50_ms", "ms", "lower", 0},
	{"serve.full_p50_ms", "ms", "lower", 0},
	{"serve.healthz_us", "us", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.resp_kb", "kB", "lower", 0},
	{"serve.non200", "count", "lower", 0},
	{"serve.job_ack_ms", "ms", "lower", 0},
	{"serve.job_done_ms", "ms", "lower", 0},

	{"harness.kernel_ms_p50", "ms", "lower", 0},
	{"harness.kernel_cv", "ratio", "lower", 0},
	{"harness.steal_frac", "ratio", "lower", 0},
	{"harness.disturbed_frac", "ratio", "lower", 0},
	{"harness.raw_op_p50_ms", "ms", "lower", 0},
	{"harness.op_tail_ms", "ms", "lower", 0},
	{"harness.tail_pct", "%", "higher", 0},
	{"harness.trace_overhead_pct", "%", "lower", 0},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
