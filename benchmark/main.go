// Command benchmark is the repository's benchmark: one named workload per
// run, end-to-end metrics from an untraced pass, per-layer metrics from a
// traced one. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"metainsight"
	"metainsight/internal/workload"
)

const (
	setupRuns = 3 // set-ups per run; setup_s is their median
	tracedOps = 5 // operations of the traced pass
	// minQuiet is the fewest quiet windows a run needs before it gives up on
	// the gate and uses every window (and says so).
	minQuiet = 5
	// rssWindows is how many windows into the op loop peak_rss_mb is read.
	// The loop is time-boxed, so a faster box runs more windows, and the
	// high-water mark creeps up with every window the runtime keeps freed
	// spans for; after a fixed amount of work it repeats.
	rssWindows = 8
)

type hostInfo struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	GateOn     bool   `json:"steal_gate"`
}

func stampHost(gateOn bool) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		GateOn:     gateOn,
	}
	h.Host, _ = os.Hostname()
	// go build stamps the revision when the checkout is a git repository;
	// elsewhere the commit stays "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runConfig is one invocation.
type runConfig struct {
	w          workloadDef
	seed       int64
	seconds    float64
	trace      bool
	quick      bool
	dir        string // scratch directory for generated inputs, inside the checkout
	traceDir   string // where the traced pass writes <workload>-seed<n>.json
	cpuProfile string
}

func (c runConfig) spansPath() string {
	return filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.json", c.w.name, c.seed))
}

// runResult is everything a run reports. The last line of standard output
// is its Line(); -out appends the whole record for -compare.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Harness   map[string]float64 `json:"harness"`
	Digests   []string           `json:"digests"`
	Problems  []string           `json:"problems,omitempty"`
	Coverage  float64            `json:"min_span_coverage,omitempty"`
	// Windows are the untraced op loop's raw measurements, kept so that
	// raw-against-reference spreads can be computed from a results file.
	Windows []window `json:"windows"`
	Setups  []window `json:"setup_windows"`
}

func (r *runResult) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// measured is what the op loop of one pass produced.
type measured struct {
	all   []window
	ops   [][]opResult // per window
	rssMB float64      // VmHWM after rssWindows windows
}

// loop issues windows under the sampling protocol for seconds and checks
// every result.
func loop(s *sampler, chk *checker, inst instance, seconds float64) measured {
	var m measured
	deadline := s.p.now().Add(time.Duration(seconds * float64(time.Second)))
	m.all = s.collect(deadline, func(i int) window {
		var finish func() []opResult
		w := s.timed(func() { finish = inst.window(i) })
		ops := finish()
		for _, op := range ops {
			chk.op(op.out, op.err)
		}
		w.Ops = len(ops)
		m.ops = append(m.ops, ops)
		if len(m.ops) == rssWindows {
			m.rssMB, _ = peakRSSMB()
		}
		return w
	})
	return m
}

// latencies returns the reference-ms latency of every op in the usable
// windows, by tag. An op without a latency of its own took the whole window.
func (m measured) latencies(use func(window) bool, ref bool) map[string][]float64 {
	out := map[string][]float64{}
	for i, w := range m.all {
		if !use(w) {
			continue
		}
		f := 1.0
		if ref {
			f = w.scale()
		}
		for _, op := range m.ops[i] {
			lat := op.latMS
			if lat == 0 {
				lat = w.WallMS
			}
			out[op.tag] = append(out[op.tag], lat*f)
		}
	}
	return out
}

func flatten(by map[string][]float64) []float64 {
	var all []float64
	for _, v := range by {
		all = append(all, v...)
	}
	return all
}

func run(cfg runConfig) (*runResult, error) {
	s := newSampler(realProbes())
	res := &runResult{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace,
		Host:    stampHost(s.gateOn),
		Metrics: map[string]metric{}, Harness: map[string]float64{},
	}
	e := &env{dir: cfg.dir, seed: cfg.seed, quick: cfg.quick}
	if cfg.trace {
		e.rec, e.lay = newRecorder(), newLayerSamples()
	}
	chk := newChecker()

	// Set-up: the full sequence, from scratch each time, each instance
	// sandwiched and gated like an op. The last instance serves the ops. The
	// traced pass sets up once, under spans.
	runs := setupRuns
	if cfg.trace || cfg.quick {
		runs = 1
	}
	var inst instance
	var setups []window
	for i := 0; i < runs; i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		setups = append(setups, s.timed(func() { inst, err = cfg.w.setup(e) }))
		if err != nil {
			return nil, fmt.Errorf("set-up %d of %s: %w", i, cfg.w.name, err)
		}
	}
	defer func() { inst.close() }()
	if cfg.trace {
		e.lay.toReference(opSetup, setups[0].scale())
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	m := loop(s, chk, inst, seconds)
	if cfg.cpuProfile != "" {
		pprof.StopCPUProfile()
	}

	res.Windows, res.Setups = m.all, setups
	quiet, fellBack := quietOf(m.all, minQuiet)
	isQuiet := func(w window) bool { return fellBack || !w.Disturbed }
	refByTag := m.latencies(isQuiet, true)
	refLat := flatten(refByTag)
	rawLat := flatten(m.latencies(isQuiet, false))
	var refWindowS, refCPU float64
	quietOps, allOps := 0, 0
	var allocs, allocBytes uint64
	for _, w := range quiet {
		refWindowS += w.RefMS() / 1000
		refCPU += w.CPUMS * w.scale()
		quietOps += w.Ops
	}
	var stealTicks int64
	var spanS float64
	disturbedN := 0
	for _, w := range m.all {
		allOps += w.Ops
		allocs += w.Allocs
		allocBytes += w.AllocBytes
		stealTicks += w.StealTicks
		spanS += w.spanSeconds
		if w.Disturbed {
			disturbedN++
		}
	}
	if quietOps == 0 || allOps == 0 {
		return nil, errors.New("no operation completed")
	}

	tailPct := tailPercentile(len(refLat))
	h := res.Harness
	h["kernel_ms_p50"] = median(s.passes)
	h["kernel_cv"] = cv(s.passes)
	h["steal_frac"] = float64(stealTicks) * tickMS / 1000 / (spanS * float64(s.nproc))
	h["disturbed_frac"] = float64(disturbedN) / float64(len(m.all))
	h["raw_op_p50_ms"] = median(rawLat)
	h["op_tail_ms"] = quantile(refLat, float64(tailPct)/100)
	h["tail_pct"] = float64(tailPct)
	h["quiet_ops"] = float64(quietOps)
	h["windows"] = float64(len(m.all))
	if fellBack {
		h["gate_fell_back"] = 1
	}

	if !cfg.trace {
		var setupS []float64
		sq, _ := quietOf(setups, 1)
		for _, w := range sq {
			setupS = append(setupS, w.RefMS()/1000)
		}
		score, err := inst.score()
		if err != nil {
			return nil, fmt.Errorf("score_at_budget: %w", err)
		}
		rss := m.rssMB
		if rss == 0 { // a short run, or no /proc: read it now and fail if that fails
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
		values := map[string]float64{
			"setup_s":         median(setupS),
			"op_p50_ms":       median(refLat),
			"ops_per_s":       float64(quietOps) / refWindowS,
			"cpu_ms_per_op":   refCPU / float64(quietOps),
			"alloc_mb_per_op": float64(allocBytes) / 1e6 / float64(allOps),
			"allocs_per_op":   float64(allocs) / float64(allOps),
			"peak_rss_mb":     rss,
			"score_at_budget": score,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{values[d.Name], d.Unit}
		}
	} else if err := tracedPass(cfg, s, e, chk, inst, res, refByTag); err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Digests, res.Problems = chk.digests(), chk.problems
	res.Correct = chk.failed == 0
	for name, mv := range res.Metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			res.Correct = false
			res.Problems = append(res.Problems, "metric "+name+" is not finite")
			res.Metrics[name] = metric{0, mv.Unit}
		}
	}
	return res, nil
}

// tracedPass runs the traced operations and the layer probes, fills in the
// per-layer metrics and writes the spans out.
func tracedPass(cfg runConfig, s *sampler, e *env, chk *checker, inst instance, res *runResult, untraced map[string][]float64) error {
	traced := map[string][]float64{}
	nOps := tracedOps
	if cfg.quick {
		nOps = 2
	}
	for i := 0; i < nOps; i++ {
		e.setOp(i)
		var ops []opResult
		w := s.timed(func() { e.rec.in("op", func() { ops = inst.traced(i) }) })
		var tagged float64
		for _, op := range ops {
			chk.op(op.out, op.err)
			if op.latMS > 0 {
				traced[op.tag] = append(traced[op.tag], op.latMS*w.scale())
				tagged += op.latMS
			}
		}
		if tagged == 0 {
			traced[""] = append(traced[""], w.RefMS())
		}
		e.lay.toReference(i, w.scale())
	}
	var err error
	w := s.timed(func() { err = e.probeLayers(inst.primary()) })
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	e.lay.toReference(opProbeLayers, w.scale())
	ccPath, cc, err := creditCardFor(e, inst)
	if err != nil {
		return err
	}
	w = s.timed(func() { err = e.probeServe(ccPath, cc) })
	if err != nil {
		return fmt.Errorf("serve probes: %w", err)
	}
	e.lay.toReference(opProbeServe, w.scale())

	// Overhead: the traced pass against the untraced one, over the op
	// shapes both timed.
	var tr, un float64
	for tag, v := range traced {
		if u := untraced[tag]; len(u) > 0 {
			tr += median(v)
			un += median(u)
		}
	}
	if un > 0 {
		res.Harness["trace_overhead_pct"] = 100 * (tr - un) / un
	}

	res.Coverage = 1
	for i := 0; i < nOps; i++ {
		res.Coverage = min(res.Coverage, childCoverage(e.rec.spans, i))
	}
	for _, d := range perLayer {
		v, ok := 0.0, false
		switch {
		case strings.HasPrefix(d.Name, "harness."):
			v, ok = res.Harness[strings.TrimPrefix(d.Name, "harness.")]
		case d.Name == "dataset.load_rows_per_s":
			v, ok = e.lay.ratio("_load_rows", "dataset.load_ms", 1000)
		case d.Name == "engine.rows_per_s_f0":
			v, ok = e.lay.ratio("_f0_rows", "engine.scan_f0_ms", 1000)
		case d.Name == "dataset.postings_bytes_per_row":
			v, ok = e.lay.ratio("_postings_bytes", "_load_rows", 1)
		case d.Name == "cache.query_hit_rate":
			v, ok = e.lay.ratio("_q_hits", "_q_lookups", 1)
		case d.Name == "cache.pattern_hit_rate":
			v, ok = e.lay.ratio("_p_hits", "_p_lookups", 1)
		default:
			v, ok = e.lay.value(d.Name)
		}
		if !ok {
			return fmt.Errorf("traced pass produced no %s", d.Name)
		}
		res.Metrics[d.Name] = metric{v, d.Unit}
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	return e.rec.write(cfg.spansPath(), traceFile{Workload: cfg.w.name, Seed: cfg.seed, Host: res.Host, RefScale: e.lay.scale})
}

func cv(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mean, ss := 0.0, 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(v))) / mean
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name       = flag.String("workload", "", "workload to run: "+workloadNames())
		seed       = flag.Int64("seed", 1, "seed of the generated inputs and the request mix")
		seconds    = flag.Float64("seconds", 20, "how long the op loop measures")
		trace      = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		quick      = flag.Bool("quick", false, "small inputs (a 100 k-row table, one set-up), the unit test's scale")
		out        = flag.String("out", "", "append the run's full record to this JSON-lines file, for -compare")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the untraced ops to this file")
		compare    = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare takes two files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q; have %s", *name, workloadNames()))
	}
	// Load is sized for the box: one process, as many Ps as cores up to 4.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return fail(err)
	}
	dir := filepath.Join(build, "tmp", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick,
		dir: dir, traceDir: filepath.Join(build, "trace"), cpuProfile: *cpuProfile,
	}
	res, err := run(cfg)
	if err != nil {
		return fail(err)
	}
	if err := report(res, *out); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the run: diagnostics first, the result line last.
func report(res *runResult, outPath string) error {
	h := res.Host
	fmt.Printf("# workload %s seed %d trace %v\n", res.Workload, res.Seed, res.Trace)
	fmt.Printf("# host %s nproc %d GOMAXPROCS %d %s commit %s steal-gate %v K0_MS %g\n",
		h.Host, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.GateOn, K0_MS)
	for _, d := range res.Digests {
		fmt.Printf("# digest %s\n", d)
	}
	for _, k := range sortedKeys(res.Harness) {
		fmt.Printf("# harness.%s %.6g\n", k, res.Harness[k])
	}
	if res.Trace {
		fmt.Printf("# min span coverage %.4f\n", res.Coverage)
	}
	for _, p := range res.Problems {
		fmt.Printf("# PROBLEM %s\n", p)
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("# %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if outPath != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// creditCardFor returns the Credit Card table the serve probes run over:
// the daemon workload's own, or one written aside — outside the spans and
// layer samples — for the library workloads.
func creditCardFor(e *env, inst instance) (string, *metainsight.Dataset, error) {
	if di, ok := inst.(*daemonInst); ok {
		return di.cc.path, di.cc.ds, nil
	}
	aside := &env{dir: e.dir, seed: e.seed, nfile: 1000}
	path, err := aside.writeCSV("credit_card", workload.CreditCard())
	if err != nil {
		return "", nil, err
	}
	ds, err := aside.load(path)
	return path, ds, err
}
