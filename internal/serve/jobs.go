package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"metainsight"
	"metainsight/internal/obs"
	"metainsight/internal/ranker"
)

// JobsConfig configures the durable job scheduler.
type JobsConfig struct {
	// Dir is the job state directory (one spec and one result record per
	// job). Empty disables durable jobs.
	Dir string
	// Workers is how many jobs may run concurrently (default 2). Each
	// running job additionally holds an admission slot, so jobs and
	// synchronous requests share — and are fairly scheduled over — the same
	// execution capacity.
	Workers int
	// CheckpointEvery is reserved and ignored: jobs keep no checkpoint, and
	// a restarted daemon re-mines each unfinished job from its spec. It
	// stays only for callers that still set it.
	CheckpointEvery int64
}

// streamBuffer is the per-subscriber SSE event buffer. A subscriber that
// falls further behind is switched to snapshot mode (drop-to-snapshot)
// instead of backpressuring the miner.
const streamBuffer = 64

func (c JobsConfig) withDefaults() JobsConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// jobResult is the durable completion record, written atomically to
// result.json when a job finishes. Its presence is what distinguishes a
// finished job from one to re-run at startup.
type jobResult struct {
	State    JobState        `json:"state"`
	Error    string          `json:"error,omitempty"`
	Insights json.RawMessage `json:"insights,omitempty"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

// JobStatus is the wire form of one job's current state.
type JobStatus struct {
	ID            string          `json:"id"`
	State         JobState        `json:"state"`
	Tenant        string          `json:"tenant"`
	Dataset       string          `json:"dataset"`
	InsightsFound int64           `json:"insights_found"`
	Error         string          `json:"error,omitempty"`
	Insights      json.RawMessage `json:"insights,omitempty"`
	Stats         json.RawMessage `json:"stats,omitempty"`
}

// job is one durable job's in-memory state.
type job struct {
	spec JobSpec
	hub  *streamHub
	prog *ranker.Progressive

	found atomic.Int64

	mu       sync.Mutex
	state    JobState
	errMsg   string
	insights json.RawMessage
	stats    json.RawMessage
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:            j.spec.ID,
		State:         j.state,
		Tenant:        j.spec.Tenant,
		Dataset:       j.spec.Params.Dataset,
		InsightsFound: j.found.Load(),
		Error:         j.errMsg,
		Insights:      j.insights,
		Stats:         j.stats,
	}
}

// scheduler owns the durable job queue: specs are journaled before
// acknowledgement, results are journaled at completion, and anything
// in between — including a kill -9 of the whole daemon — leaves a spec
// without a result, which the next startup re-mines from the start. A job
// is cost-budgeted or unbudgeted, so its mine is a pure function of the
// table and the spec, and the re-mined result is byte-identical to the one
// the killed process would have written (DESIGN.md §7).
type scheduler struct {
	cfg       JobsConfig
	reg       *registry
	adm       *admission
	obs       *obs.Observer
	unitDelay time.Duration
	logf      func(string, ...any)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*job
	queue []*job
	wake  chan struct{}
}

func newScheduler(cfg JobsConfig, reg *registry, adm *admission, ob *obs.Observer,
	unitDelay time.Duration, logf func(string, ...any)) (*scheduler, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		cfg: cfg, reg: reg, adm: adm, obs: ob,
		unitDelay: unitDelay, logf: logf,
		ctx: ctx, cancel: cancel,
		jobs: make(map[string]*job),
		wake: make(chan struct{}, 1),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
			cancel()
			return nil, err
		}
		if err := s.recover(); err != nil {
			cancel()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.kick()
	return s, nil
}

func (s *scheduler) enabled() bool { return s.cfg.Dir != "" }

// recover scans the job directory at startup: specs with a result record
// load as finished history; specs without one are in-flight jobs the
// previous process lost — they re-enter the queue and mine from the start.
// A job's ck/ subdirectory is checkpoint state that versions which resumed
// jobs left behind; nothing reads it, so it is removed.
func (s *scheduler) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.Dir, ent.Name())
		if err := os.RemoveAll(filepath.Join(dir, "ck")); err != nil {
			s.logf("serve: job %s: removing stale checkpoint directory: %v", ent.Name(), err)
		}
		specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			continue // a job directory torn before its spec landed: not accepted, skip
		}
		var spec JobSpec
		if err := json.Unmarshal(specData, &spec); err != nil {
			s.logf("serve: skipping corrupt job spec %s: %v", ent.Name(), err)
			continue
		}
		j := s.newJob(spec)
		if resData, err := os.ReadFile(filepath.Join(dir, "result.json")); err == nil {
			var res jobResult
			if err := json.Unmarshal(resData, &res); err == nil {
				j.state = res.State
				j.errMsg = res.Error
				j.insights = res.Insights
				j.stats = res.Stats
				j.hub.finish(mustJSON(j.status()))
				s.jobs[spec.ID] = j
				continue
			}
			s.logf("serve: job %s: corrupt result record, re-running: %v", spec.ID, err)
		}
		s.jobs[spec.ID] = j
		s.queue = append(s.queue, j)
		s.obs.Count("serve.jobs.recovered", 1)
		s.transition(j, JobQueued)
	}
	return nil
}

func (s *scheduler) newJob(spec JobSpec) *job {
	k := spec.Params.TopK
	if k <= 0 {
		k = 10
	}
	return &job{
		spec:  spec,
		hub:   newStreamHub(),
		prog:  ranker.NewProgressive(k),
		state: JobQueued,
	}
}

// transition records a job state change through the metrics registry.
func (s *scheduler) transition(j *job, to JobState) {
	j.state = to
	s.obs.Count("serve.jobs.transition."+string(to), 1)
}

// submit validates, journals and enqueues one job. The spec hits disk —
// atomic write, rename, directory fsync — before the job is acknowledged,
// so an accepted job is crash-durable from the moment the client sees its id.
func (s *scheduler) submit(tenant string, params AnalyzeParams) (*job, *APIError) {
	if !s.enabled() {
		return nil, apiErrorf(http.StatusServiceUnavailable, CodeShuttingDown,
			"durable jobs are disabled (no state directory)")
	}
	req, err := params.request()
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "invalid job params: %v", err)
	}
	entry, ok := s.reg.get(params.Dataset)
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, CodeNotFound, "unknown dataset %q", params.Dataset)
	}
	if aerr := checkMeasures(entry, req); aerr != nil {
		return nil, aerr
	}
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, CodeInternal, "id generation: %v", err)
	}
	spec := JobSpec{
		ID:            "job-" + hex.EncodeToString(idb[:]),
		Tenant:        tenant,
		Params:        params,
		SubmittedUnix: time.Now().Unix(),
	}
	dir := filepath.Join(s.cfg.Dir, spec.ID)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, CodeInternal, "job dir: %v", err)
	}
	if err := atomicWrite(dir, "spec.json", mustJSON(spec)); err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, CodeInternal, "journal spec: %v", err)
	}
	j := s.newJob(spec)
	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		return nil, apiErrorf(http.StatusServiceUnavailable, CodeShuttingDown, "server is shutting down")
	}
	s.jobs[spec.ID] = j
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.obs.Count("serve.jobs.submitted", 1)
	s.kick()
	return j, nil
}

func (s *scheduler) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pop dequeues the oldest queued job (FIFO; fairness across tenants applies
// at the admission layer each running job acquires its slot through).
func (s *scheduler) pop() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	return j
}

// requeue puts an interrupted job back at the queue head, preserving its
// position for the next worker (or, during shutdown, for the next process).
func (s *scheduler) requeue(j *job) {
	s.mu.Lock()
	s.queue = append([]*job{j}, s.queue...)
	s.mu.Unlock()
	s.obs.Count("serve.jobs.requeued", 1)
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.pop()
		if j == nil {
			select {
			case <-s.ctx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		s.run(j)
		select {
		case <-s.ctx.Done():
			return
		default:
		}
	}
}

// run executes one job to completion (or interruption). The job shares the
// admission semaphore with synchronous requests, mines on the dataset's
// resident session as /v1/analyze does (a session's warmth changes no
// result and no charge), and publishes each discovery to the progressive
// ranker and SSE hub.
func (s *scheduler) run(j *job) {
	permit, aerr := s.adm.Acquire(s.ctx, j.spec.Tenant)
	if aerr != nil {
		// Shutting down (or the scheduler context fired): hold the job for
		// the next process; its spec is already durable.
		s.requeue(j)
		return
	}
	defer permit.Release()

	entry, ok := s.reg.get(j.spec.Params.Dataset)
	if !ok {
		s.finish(j, nil, fmt.Errorf("unknown dataset %q", j.spec.Params.Dataset))
		return
	}
	req, err := j.spec.Params.request()
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	j.mu.Lock()
	s.transition(j, JobRunning)
	j.mu.Unlock()

	req.Progress = func(mi *metainsight.MetaInsight) {
		n := j.found.Add(1)
		j.prog.Add(mi)
		s.obs.Count("serve.stream.published", 1)
		j.hub.publish("insight", mustJSON(map[string]any{
			"seq":         n,
			"score":       mi.Score,
			"description": metainsight.Describe(mi),
		}))
		if s.unitDelay > 0 {
			time.Sleep(s.unitDelay) // test-only throttle; inert to results
		}
	}

	an, err := entry.sess.Analyze(s.ctx, req)
	if an == nil {
		s.finish(j, nil, err)
		return
	}
	if an.Result.Stats.Cancelled {
		// Interrupted by shutdown: no result record is written — that is
		// exactly what marks the job in-flight — so the next process
		// re-mines it from its spec.
		j.mu.Lock()
		s.transition(j, JobQueued)
		j.mu.Unlock()
		s.obs.Count("serve.jobs.interrupted", 1)
		s.requeue(j)
		return
	}
	s.finish(j, an, err)
}

// finish records a job's terminal state durably and closes its stream.
func (s *scheduler) finish(j *job, an *metainsight.Analysis, err error) {
	res := jobResult{State: JobDone}
	if an != nil {
		if data, mErr := json.Marshal(an.Insights); mErr == nil {
			res.Insights = data
		}
		if data, mErr := json.Marshal(an.Result.Stats); mErr == nil {
			res.Stats = data
		}
	}
	if an == nil || err != nil {
		res.State = JobFailed
		if err != nil {
			res.Error = err.Error()
		}
	}
	if s.enabled() {
		dir := filepath.Join(s.cfg.Dir, j.spec.ID)
		if wErr := atomicWrite(dir, "result.json", mustJSON(res)); wErr != nil {
			s.logf("serve: job %s: persisting result: %v", j.spec.ID, wErr)
		}
	}
	j.mu.Lock()
	s.transition(j, res.State)
	j.errMsg = res.Error
	j.insights = res.Insights
	j.stats = res.Stats
	j.mu.Unlock()
	if res.State == JobFailed {
		s.obs.Count("serve.jobs.failed", 1)
	} else {
		s.obs.Count("serve.jobs.completed", 1)
	}
	j.hub.finish(mustJSON(j.status()))
}

func (s *scheduler) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *scheduler) list() []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	// Stable listing order: by id.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// stop drains the scheduler: running jobs are cancelled at their next unit
// commit and requeued on disk-truth (spec without result), then the workers
// exit.
func (s *scheduler) stop() {
	s.cancel()
	s.kick()
	s.wg.Wait()
}

// snapshotPayload renders the drop-to-snapshot catch-up event for one job:
// the current diversified top-k plus how many increments were dropped.
func (j *job) snapshotPayload(dropped int64) []byte {
	top := j.prog.TopK()
	items := make([]map[string]any, 0, len(top))
	for _, mi := range top {
		items = append(items, map[string]any{
			"score":       mi.Score,
			"description": metainsight.Describe(mi),
		})
	}
	return mustJSON(map[string]any{"dropped": dropped, "top_k": items})
}

// mustJSON marshals values the package fully controls; a failure is a
// programming error surfaced as a JSON error payload rather than a panic.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return data
}
