package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"metainsight"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
	"metainsight/internal/serve"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// load reads a CSV the way OpenCSV does. In the traced pass it then forces,
// one by one, the index structures that an Analyze would otherwise build on
// first use, so their cost has a span of its own.
func (e *env) load(path string) (*metainsight.Dataset, error) {
	var (
		ds     *metainsight.Dataset
		err    error
		m0, m1 runtime.MemStats
	)
	if e.rec != nil {
		runtime.ReadMemStats(&m0)
	}
	d := e.rec.in("dataset.load", func() { ds, err = dataset.LoadCSVFile(path, dataset.LoadOptions{}) })
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	if e.rec == nil {
		return ds, nil
	}
	runtime.ReadMemStats(&m1)
	e.lay.add("dataset.load_ms", ms(d))
	e.lay.add("_load_rows", float64(ds.Rows()))
	e.lay.add("dataset.load_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	d = e.rec.in("dataset.index_build", func() {
		for _, c := range ds.Dimensions() {
			c.PostingsBitmap(0)
			c.Postings(0)
			c.Zones(8192)
		}
	})
	e.lay.add("dataset.index_build_ms", ms(d))
	e.lay.add("_postings_bytes", float64(ds.PostingsStats().CompressedBytes))
	return ds, nil
}

// analyzeSteps is Session.Analyze taken apart: analyzer construction, mine,
// rank, encode — one span and one set of counts per layer. It runs in the
// traced pass only; end-to-end numbers never come from it.
func (e *env) analyzeSteps(key string, ds *metainsight.Dataset, budget float64) (ranked, error) {
	ob := metainsight.NewObserver(metainsight.ObserverOptions{})
	var (
		mineStart time.Time
		firstMS   float64
		curve     []progressPoint
		top       []float64 // running top-10 scores, ascending
	)
	opts := []metainsight.Option{
		metainsight.WithObserver(ob),
		metainsight.WithProgress(func(mi *metainsight.MetaInsight) {
			at := ms(time.Since(mineStart))
			if len(curve) == 0 {
				firstMS = at
			}
			top = pushTop(top, mi.Score, wantInsights)
			sum := 0.0
			for _, s := range top {
				sum += s
			}
			curve = append(curve, progressPoint{at, sum})
		}),
	}
	if budget > 0 {
		opts = append(opts, metainsight.WithCostBudget(budget))
	}
	var (
		a        *metainsight.Analyzer
		res      *metainsight.MiningResult
		insights []*metainsight.Insight
		encoded  []byte
		err      error
	)
	e.rec.in("session.analyzer", func() { a, err = metainsight.NewAnalyzer(ds, opts...) })
	if err != nil {
		return ranked{key: key}, err
	}
	mineStart = time.Now()
	mine := e.rec.in("miner.mine", func() { res = a.MineContext(context.Background()) })
	if res.Err != nil {
		return ranked{key: key}, res.Err
	}
	rank := e.rec.in("ranker.rank", func() { insights = a.Rank(res, wantInsights) })
	enc := e.rec.in("render.json", func() { encoded, err = json.Marshal(insights) })
	if err != nil {
		return ranked{key: key}, err
	}

	st := res.Stats
	e.lay.add("miner.mine_ms", ms(mine))
	e.lay.add("miner.units_committed", float64(st.ExpandUnits+st.DataPatternUnits+st.MetaInsightUnits))
	e.lay.add("miner.cost_units", st.CostUsed)
	e.lay.add("miner.pruned_p1", float64(st.Pruned1))
	e.lay.add("miner.mi_found", float64(len(res.MetaInsights)))
	e.lay.add("miner.first_insight_ms", firstMS)
	e.lay.add("miner.t90_ms", t90(curve))
	e.lay.add("engine.queries_executed", float64(st.ExecutedQueries))
	e.lay.add("engine.queries_served", float64(st.CacheServed))
	e.lay.add("_q_hits", float64(st.QueryCacheStats.Hits))
	e.lay.add("_q_lookups", float64(st.QueryCacheStats.Hits+st.QueryCacheStats.Misses))
	e.lay.add("_p_hits", float64(st.PatternCacheStats.Hits))
	e.lay.add("_p_lookups", float64(st.PatternCacheStats.Hits+st.PatternCacheStats.Misses))
	e.lay.add("cache.query_entries", float64(a.Engine().QueryCache().Stats().Entries))
	e.lay.add("cache.evictions", float64(st.Evictions))
	e.lay.add("pattern.evals_per_op", float64(st.PatternCacheStats.Misses))
	snap := a.Snapshot()
	for _, ph := range []string{"expand", "evaluate", "commit", "rank"} {
		e.lay.add("obs.phase_"+ph+"_ms", snap.PhaseSeconds[ph]*1000)
	}
	e.lay.add("ranker.rank_ms", ms(rank))
	e.lay.add("ranker.pool", snap.Gauges["ranker.pool"])
	e.lay.add("render.json_ms", ms(enc))
	e.lay.add("render.json_kb", float64(len(encoded))/1e3)
	return rankedOf(key, insights, res, encoded)
}

type progressPoint struct{ atMS, sum float64 }

// pushTop inserts s into the ascending slice top, keeping its k largest.
func pushTop(top []float64, s float64, k int) []float64 {
	i := sort.SearchFloat64s(top, s)
	top = append(top, 0)
	copy(top[i+1:], top[i:])
	top[i] = s
	if len(top) > k {
		top = top[1:]
	}
	return top
}

// t90 is the time at which the running top-10 score sum first reached 90 %
// of its final value.
func t90(curve []progressPoint) float64 {
	if len(curve) == 0 {
		return 0
	}
	final := curve[len(curve)-1].sum
	for _, p := range curve {
		if p.sum >= 0.9*final {
			return p.atMS
		}
	}
	return curve[len(curve)-1].atMS
}

// probeLayers times the calls the operations do not isolate: plan + scan on
// a fresh substrate as the mining frontier pays it, pattern evaluation on
// series of the table's own shape, the session's fixed cost, the report
// renderer. One span each, outside any operation.
func (e *env) probeLayers(ds *metainsight.Dataset) error {
	e.setOp(opProbeLayers)
	dims := ds.DimensionNames()
	if len(dims) < 2 {
		return fmt.Errorf("probe table %s has %d dimensions, need 2", ds.Name(), len(dims))
	}
	breakdown := dims[len(dims)-1]
	if t := ds.TemporalDimensions(); len(t) > 0 {
		breakdown = t[len(t)-1]
	}
	var others []string
	for _, d := range dims {
		if d != breakdown {
			others = append(others, d)
		}
	}
	// Filters take each dimension's first member; a table with fewer free
	// dimensions than filters repeats its deepest subspace.
	var subs [3]model.Subspace
	for n := 1; n < len(subs); n++ {
		subs[n] = subs[n-1]
		if n-1 < len(others) {
			d := others[n-1]
			subs[n] = subs[n-1].With(d, ds.Dimension(d).Domain()[0])
		}
	}
	ext, augBase := others[len(others)-1], subs[1]
	if len(others) < 2 {
		augBase = nil // the only free dimension cannot be both filter and extension
	}

	var sub *engine.ColumnarSubstrate
	d := e.rec.in("engine.substrate_build", func() { sub = engine.NewColumnarSubstrate(ds) })
	e.lay.add("engine.substrate_build_ms", ms(d))
	var temporal, categorical seriesSample
	for n, s := range subs {
		fresh := engine.NewColumnarSubstrate(ds)
		var err error
		d := e.rec.in(fmt.Sprintf("engine.scan_f%d", n), func() {
			u, _, serr := fresh.ScanUnit(s, breakdown)
			if err = serr; err == nil && n == 0 {
				temporal = firstSeries(u.GroupKeys, u.Sums)
			}
		})
		if err != nil {
			return err
		}
		e.lay.add(fmt.Sprintf("engine.scan_f%d_ms", n), ms(d))
		if n == 0 {
			e.lay.add("_f0_rows", float64(ds.Rows()))
		}
		if n == 2 {
			d := e.rec.in("engine.rescan_f2", func() { _, _, err = fresh.ScanUnit(s, breakdown) })
			if err != nil {
				return err
			}
			e.lay.add("engine.rescan_f2_ms", ms(d))
		}
	}
	var err error
	d = e.rec.in("engine.scan_aug", func() { _, _, err = sub.ScanAugmented(augBase, breakdown, ext) })
	if err != nil {
		return err
	}
	e.lay.add("engine.scan_aug_ms", ms(d))
	if u, _, err := sub.ScanUnit(nil, others[0]); err == nil {
		categorical = firstSeries(u.GroupKeys, u.Sums)
	} else {
		return err
	}

	const evalReps = 200
	cfg := pattern.DefaultConfig()
	d = e.rec.in("pattern.evaluate_all", func() {
		for i := 0; i < evalReps; i++ {
			pattern.EvaluateAll(temporal.keys, temporal.values, true, cfg)
			pattern.EvaluateAll(categorical.keys, categorical.values, false, cfg)
		}
	})
	e.lay.add("pattern.evaluate_all_us", ms(d)*1000/(2*evalReps))

	sess, err := metainsight.NewSession(ds)
	if err != nil {
		return err
	}
	defer sess.Close()
	// A cost budget that the first unit exhausts leaves what Session.Analyze
	// does around mining: option resolution, substrate lookup, analyzer
	// build, an empty rank.
	tiny := metainsight.Request{TopK: wantInsights, Budget: metainsight.Budget{Cost: 1e-9}}
	if _, err := sess.Analyze(context.Background(), tiny); err != nil {
		return err
	}
	var selfs []float64
	for i := 0; i < 5; i++ {
		d := e.rec.in("session.self", func() { _, err = sess.Analyze(context.Background(), tiny) })
		if err != nil {
			return err
		}
		selfs = append(selfs, ms(d))
	}
	e.lay.add("session.self_ms", median(selfs))

	an, err := sess.Analyze(context.Background(), metainsight.Request{TopK: wantInsights, Budget: metainsight.Budget{Cost: reportBudget}})
	if an == nil {
		return err
	}
	d = e.rec.in("render.report", func() { err = an.WriteReport(io.Discard, "probe") })
	if err != nil {
		return err
	}
	e.lay.add("render.report_ms", ms(d))
	return nil
}

type seriesSample struct {
	keys   []string
	values []float64
}

// firstSeries takes the sums of the alphabetically first measure column.
func firstSeries(keys []string, sums map[string][]float64) seriesSample {
	cols := make([]string, 0, len(sums))
	for c := range sums {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	if len(cols) == 0 {
		return seriesSample{keys: keys, values: make([]float64, len(keys))}
	}
	return seriesSample{keys: keys, values: sums[cols[0]]}
}

// probeServe measures the daemon's request shapes one at a time over a
// single keep-alive connection, the same full request in-library, and one
// durable job against a temporary state directory (journal + fsync +
// checkpoint; on a shared disk that does not repeat, which is why it is a
// traced-pass number only).
func (e *env) probeServe(ccPath string, cc *metainsight.Dataset) error {
	e.setOp(opProbeServe)
	state := filepath.Join(e.dir, "state")
	d, err := startDaemon([]serve.DatasetSpec{{Name: "credit_card", Path: ccPath, MaxCardinality: 100}}, state)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient("probe", e.seed)
	defer c.hc.CloseIdleConnections()

	non200 := 0
	shape := func(k reqKind, n int) (lat []float64, bytesN int) {
		for i := 0; i < n+1; i++ {
			var r reply
			e.rec.in("serve."+reqNames[k], func() { r = c.do(d.base, k) })
			if r.err != nil || r.status != http.StatusOK {
				non200++
			}
			if i > 0 { // the first exchange opens the connection
				lat = append(lat, r.latMS)
				bytesN = len(r.body)
			}
		}
		return lat, bytesN
	}
	light, _ := shape(reqLight, 20)
	full, fullBytes := shape(reqFull, 5)
	health, _ := shape(reqHealthz, 20)
	e.lay.add("serve.light_p50_ms", median(light))
	e.lay.add("serve.full_p50_ms", median(full))
	e.lay.add("serve.healthz_us", median(health)*1000)
	e.lay.add("serve.resp_kb", float64(fullBytes)/1e3)

	sess, err := metainsight.NewSession(cc)
	if err != nil {
		return err
	}
	defer sess.Close()
	var lib []float64
	for i := 0; i < 6; i++ {
		dur := e.rec.in("session.analyze_full", func() {
			_, err = sess.Analyze(context.Background(), metainsight.Request{TopK: wantInsights})
		})
		if err != nil {
			return err
		}
		if i > 0 {
			lib = append(lib, ms(dur))
		}
	}
	e.lay.add("serve.overhead_ms", median(full)-median(lib))

	var ack, done time.Duration
	var jobErr error
	e.rec.in("serve.job", func() {
		t0 := time.Now()
		resp, err := c.hc.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(fullBody))
		if err != nil {
			jobErr = err
			return
		}
		var sub serve.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		ack = time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusAccepted {
			non200++
			jobErr = fmt.Errorf("job submit: status %d: %v", resp.StatusCode, err)
			return
		}
		for time.Since(t0) < 30*time.Second {
			resp, err := c.hc.Get(d.base + "/v1/jobs/" + sub.ID)
			if err != nil {
				jobErr = err
				return
			}
			var st serve.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				jobErr = err
				return
			}
			if st.State == serve.JobDone {
				done = time.Since(t0)
				return
			}
			if st.State == serve.JobFailed {
				jobErr = fmt.Errorf("job %s failed: %s", sub.ID, st.Error)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		jobErr = fmt.Errorf("job %s did not finish in 30 s", sub.ID)
	})
	if jobErr != nil {
		return jobErr
	}
	e.lay.add("serve.job_ack_ms", ms(ack))
	e.lay.add("serve.job_done_ms", ms(done))
	e.lay.add("serve.non200", float64(non200))
	return nil
}
