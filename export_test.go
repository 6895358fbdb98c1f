package metainsight

// The execution layout is fixed in production: 8 mining workers and scans on
// GOMAXPROCS goroutines. Results must be bit-identical at any layout, so the
// tests vary it through these options, which exist only in test builds.

// WithWorkers sets the number of mining worker goroutines (0 keeps 8).
func WithWorkers(n int) Option {
	return func(o *analyzerOptions) { o.minerCfg.Workers = n }
}

// WithScanParallelism sets how many goroutines one physical scan may use: 0
// is GOMAXPROCS, 1 the sequential path, n > 1 exactly n.
func WithScanParallelism(n int) Option {
	return func(o *analyzerOptions) { o.scanPar = n }
}
