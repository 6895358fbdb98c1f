package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	"metainsight/internal/dataset"
	"metainsight/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Datasets are the named datasets the daemon serves. At least one is
	// required.
	Datasets []DatasetSpec
	// StateDir is the durable-state root; jobs journal under
	// <StateDir>/jobs. Empty disables durable jobs (synchronous analysis
	// still works).
	StateDir string
	// Admission configures the concurrency semaphore and shed policy.
	Admission AdmissionConfig
	// Quota configures per-tenant token buckets.
	Quota QuotaConfig
	// Jobs configures the durable job scheduler (Dir is derived from
	// StateDir and must be left empty).
	Jobs JobsConfig
	// Observer receives every serve.* counter/gauge and job transition.
	// Nil is valid (metrics become no-ops, /metricsz reports empty).
	Observer *obs.Observer
	// Logf receives operational log lines (default: discard).
	Logf func(string, ...any)
	// UnitDelay throttles job progress callbacks — a test-only hook used by
	// the chaos suite to stretch job runtime without perturbing results.
	UnitDelay time.Duration
}

// requestTraceCapacity bounds the trace event ring of a request that sets
// "trace": true.
const requestTraceCapacity = 4096

// Server is the resident insight service: an HTTP handler over a registry of
// named sessions, with every request passing admission control and per-tenant
// quotas, and with durable jobs that survive crashes. Construct with New,
// route via Handler, release with Close.
type Server struct {
	cfg    Config
	reg    *registry
	adm    *admission
	quo    *quotas
	sched  *scheduler
	obs    *obs.Observer
	logf   func(string, ...any)
	mux    *http.ServeMux
	closed chan struct{}
}

// New builds a Server: loads every dataset, opens its session, recovers any
// in-flight durable jobs from StateDir, and starts the job workers.
func New(cfg Config) (*Server, error) {
	if len(cfg.Datasets) == 0 {
		return nil, fmt.Errorf("serve: no datasets configured")
	}
	if cfg.Jobs.Dir != "" {
		return nil, fmt.Errorf("serve: Jobs.Dir is derived from StateDir; leave it empty")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg, err := newRegistry(cfg.Datasets)
	if err != nil {
		return nil, err
	}
	adm := newAdmission(cfg.Admission, cfg.Observer)
	quo := newQuotas(cfg.Quota, cfg.Observer)
	jobsCfg := cfg.Jobs
	if cfg.StateDir != "" {
		jobsCfg.Dir = filepath.Join(cfg.StateDir, "jobs")
	}
	sched, err := newScheduler(jobsCfg, reg, adm, cfg.Observer, cfg.UnitDelay, logf)
	if err != nil {
		reg.close()
		return nil, err
	}
	s := &Server{
		cfg: cfg, reg: reg, adm: adm, quo: quo, sched: sched,
		obs: cfg.Observer, logf: logf, closed: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStreamJob)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the server down: queued admissions are shed with a typed
// shutting-down error, running jobs are interrupted at their next unit commit
// (the next process re-mines them from their specs), and every session's
// intern table and scan plans are released. Idempotent.
func (s *Server) Close() {
	select {
	case <-s.closed:
		return
	default:
		close(s.closed)
	}
	s.adm.Close()
	s.sched.stop()
	s.reg.close()
}

// tenantOf extracts the requesting tenant from the X-Tenant header.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// requestContext applies the X-Deadline-Ms header as a context deadline —
// the HTTP half of deadline propagation: header → context → engine budget
// machinery (the miner checks cancellation at every unit commit).
func requestContext(r *http.Request) (context.Context, context.CancelFunc, *APIError) {
	ctx := r.Context()
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return nil, nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"invalid X-Deadline-Ms %q: want a positive integer millisecond count", h)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(mustJSON(v))
	_, _ = w.Write([]byte("\n"))
}

// AnalyzeResponse is the synchronous endpoint's reply.
type AnalyzeResponse struct {
	Insights json.RawMessage `json:"insights"`
	Stats    json.RawMessage `json:"stats"`
	// Degraded marks a best-effort result: the deadline fired mid-mining and
	// the insights are ranked from what was mined by then — delivered with
	// HTTP 206.
	Degraded bool   `json:"degraded,omitempty"`
	Warning  string `json:"warning,omitempty"`
	// Metrics and TraceEvents are attached when the request set "trace".
	Metrics     json.RawMessage `json:"metrics,omitempty"`
	TraceEvents json.RawMessage `json:"trace_events,omitempty"`
}

// decodeParams decodes a request body of /v1/analyze or /v1/jobs. A key
// AnalyzeParams does not name is refused, naming the key: a misspelled
// setting ("topk", "budget") would otherwise mine with that setting's
// default. The one exception is "checkpoint_every", the retired job setting,
// which is accepted and ignored so that clients written against versions
// that checkpointed jobs keep working.
func decodeParams(body io.Reader) (AnalyzeParams, error) {
	var wire struct {
		AnalyzeParams
		CheckpointEvery json.RawMessage `json:"checkpoint_every"`
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&wire)
	return wire.AnalyzeParams, err
}

// handleAnalyze runs one synchronous analysis. Order of gates: quota (cheap,
// per-tenant) → decode/validate → dataset lookup → measures against the
// dataset → admission (may queue; may shed on saturation or hopeless
// deadline) → execute.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	if aerr := s.quo.Allow(tenant); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	params, err := decodeParams(r.Body)
	if err != nil {
		writeAPIError(w, apiErrorf(http.StatusBadRequest, CodeBadRequest, "decoding request body: %v", err))
		return
	}
	req, err := params.request()
	if err != nil {
		writeAPIError(w, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err))
		return
	}
	entry, ok := s.reg.get(params.Dataset)
	if !ok {
		writeAPIError(w, apiErrorf(http.StatusNotFound, CodeNotFound, "unknown dataset %q", params.Dataset))
		return
	}
	if aerr := checkMeasures(entry, req); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	ctx, cancel, aerr := requestContext(r)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	defer cancel()

	permit, aerr := s.adm.Acquire(ctx, tenant)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	defer permit.Release()

	var reqObs *obs.Observer
	if params.Trace {
		reqObs = obs.New(obs.Options{TraceCapacity: requestTraceCapacity})
		req.Observer = reqObs
	}

	an, err := entry.sess.Analyze(ctx, req)
	if errors.Is(err, dataset.ErrUnknownMeasure) {
		writeAPIError(w, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err))
		return
	}
	if an == nil {
		writeAPIError(w, apiErrorf(http.StatusInternalServerError, CodeInternal, "analysis failed: %v", err))
		return
	}
	resp := AnalyzeResponse{
		Insights: mustJSON(an.Insights),
		Stats:    mustJSON(an.Result.Stats),
	}
	if reqObs != nil {
		resp.Metrics = mustJSON(reqObs.Snapshot())
		resp.TraceEvents = mustJSON(reqObs.Trace().Events())
	}
	status := http.StatusOK
	switch {
	case an.Result.Stats.Cancelled:
		// Deadline fired mid-mining: the engine stops at the next unit
		// commit and ranks what it has — a best-effort partial result.
		resp.Degraded = true
		resp.Warning = "deadline expired mid-analysis; partial result"
		status = http.StatusPartialContent
		s.obs.Count("serve.analyze.cancelled", 1)
	default:
		s.obs.Count("serve.analyze.ok", 1)
	}
	writeJSON(w, status, resp)
}

// SubmitResponse acknowledges a durable job submission.
type SubmitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	if aerr := s.quo.Allow(tenant); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	// The body is the analysis params.
	params, err := decodeParams(r.Body)
	if err != nil {
		writeAPIError(w, apiErrorf(http.StatusBadRequest, CodeBadRequest, "decoding request body: %v", err))
		return
	}
	j, aerr := s.sched.submit(tenant, params)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.spec.ID, State: JobQueued})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.list()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.get(r.PathValue("id"))
	if !ok {
		writeAPIError(w, apiErrorf(http.StatusNotFound, CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleStreamJob streams a job's progressive discoveries as server-sent
// events: "insight" per discovery, "snapshot" after a subscriber overflowed
// its buffer (consolidated current top-k), "done" with the final status.
func (s *Server) handleStreamJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.get(r.PathValue("id"))
	if !ok {
		writeAPIError(w, apiErrorf(http.StatusNotFound, CodeNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	sub := j.hub.subscribe(streamBuffer)
	defer j.hub.unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if f, okf := w.(http.Flusher); okf {
		f.Flush()
	}
	dropped := sub.serve(r.Context(), w, j.snapshotPayload)
	if dropped > 0 {
		s.obs.Count("serve.stream.dropped_to_snapshot", dropped)
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.reg.list()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inflight, queued := s.adm.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"inflight": inflight,
		"queued":   queued,
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		writeJSON(w, http.StatusOK, map[string]any{})
		return
	}
	readRuntimeGauges(s.obs)
	writeJSON(w, http.StatusOK, s.obs.Snapshot())
}

// runtimeGauges maps the process-wide collector signals /metricsz reports
// to the runtime/metrics samples they are read from at scrape time: the CPU
// time the collector has used, its completed cycles (both totals since the
// process started) and the heap the last cycle found live. They say what
// share of a resident daemon's CPU the collector takes, which no request's
// own metrics show.
var runtimeGauges = []struct{ gauge, sample string }{
	{"process.gc.cpu_seconds", "/cpu/classes/gc/total:cpu-seconds"},
	{"process.gc.cycles", "/gc/cycles/total:gc-cycles"},
	{"process.heap.live_bytes", "/gc/heap/live:bytes"},
}

// readRuntimeGauges sets o's runtime gauges to the current samples.
func readRuntimeGauges(o *obs.Observer) {
	samples := make([]metrics.Sample, len(runtimeGauges))
	for i, g := range runtimeGauges {
		samples[i].Name = g.sample
	}
	metrics.Read(samples)
	for i, g := range runtimeGauges {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindFloat64:
			o.SetGauge(g.gauge, v.Float64())
		case metrics.KindUint64:
			o.SetGauge(g.gauge, float64(v.Uint64()))
		}
	}
}
