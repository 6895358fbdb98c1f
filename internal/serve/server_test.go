package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"metainsight"
	"metainsight/internal/obs"
)

// writeHouseCSV materializes the canonical house-sales fixture (the same
// shape the root package's tests mine) as a CSV file.
func writeHouseCSV(t testing.TB) string {
	t.Helper()
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	valley := []float64{100, 70, 40, 10, 40, 70, 100, 100, 100, 100, 100, 100}
	julyValley := []float64{100, 100, 100, 100, 70, 40, 10, 40, 70, 100, 100, 100}
	var b strings.Builder
	b.WriteString("City,Month,Sales\n")
	add := func(city string, series []float64) {
		for m, v := range series {
			fmt.Fprintf(&b, "%s,%s,%s\n", city, months[m], strconv.FormatFloat(v, 'f', -1, 64))
		}
	}
	for _, city := range []string{"LA", "SF", "SJ", "Oakland", "Sacramento"} {
		add(city, valley)
	}
	add("San Diego", julyValley)
	path := filepath.Join(t.TempDir(), "house.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Datasets: []DatasetSpec{{Name: "house", Path: writeHouseCSV(t)}},
		Observer: obs.New(obs.Options{}),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func postJSON(t *testing.T, url string, body string, headers map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func errorCode(t *testing.T, data []byte) ErrorCode {
	t.Helper()
	var body struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil || body.Error == nil {
		t.Fatalf("response is not a typed error body: %s", data)
	}
	return body.Error.Code
}

const analyzeBody = `{"dataset":"house","top_k":5,"measures":[{"agg":"SUM","column":"Sales"}]}`

func TestAnalyzeEndpoint(t *testing.T) {
	_, hs := newTestServer(t, nil)
	status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	var insights []json.RawMessage
	if err := json.Unmarshal(resp.Insights, &insights); err != nil {
		t.Fatal(err)
	}
	if len(insights) == 0 {
		t.Fatal("analysis returned no insights")
	}
	if resp.Degraded {
		t.Fatalf("healthy run flagged degraded: %s", resp.Warning)
	}
	if !strings.Contains(string(resp.Insights), "San Diego") {
		t.Fatal("expected the San Diego exception among ranked insights")
	}
}

func TestAnalyzeTraceAttachesMetricsAndEvents(t *testing.T) {
	_, hs := newTestServer(t, nil)
	body := `{"dataset":"house","top_k":3,"trace":true,"measures":[{"agg":"SUM","column":"Sales"}]}`
	status, data := postJSON(t, hs.URL+"/v1/analyze", body, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics) == 0 {
		t.Fatal("trace=true returned no metrics snapshot")
	}
	var events []json.RawMessage
	if err := json.Unmarshal(resp.TraceEvents, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace=true returned no trace events")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	_, hs := newTestServer(t, nil)
	status, data := postJSON(t, hs.URL+"/v1/analyze", `{"dataset":"nope"}`, nil)
	if status != http.StatusNotFound || errorCode(t, data) != CodeNotFound {
		t.Fatalf("unknown dataset: status %d, body %s", status, data)
	}
	status, data = postJSON(t, hs.URL+"/v1/analyze", `{not json`, nil)
	if status != http.StatusBadRequest || errorCode(t, data) != CodeBadRequest {
		t.Fatalf("bad body: status %d, body %s", status, data)
	}
	status, data = postJSON(t, hs.URL+"/v1/analyze", `{"dataset":"house","measures":[{"agg":"MEDIAN","column":"Sales"}]}`, nil)
	if status != http.StatusBadRequest || errorCode(t, data) != CodeBadRequest {
		t.Fatalf("bad aggregate: status %d, body %s", status, data)
	}
	status, data = postJSON(t, hs.URL+"/v1/analyze", analyzeBody, map[string]string{"X-Deadline-Ms": "soon"})
	if status != http.StatusBadRequest || errorCode(t, data) != CodeBadRequest {
		t.Fatalf("bad deadline header: status %d, body %s", status, data)
	}
}

// TestUnknownRequestKeysAreRefused: a body key the params do not name is a
// 400 bad_request naming the key, on /v1/analyze and on /v1/jobs, before
// any work — a misspelled setting must not mine with its default. The
// retired "topk_pruning" is refused like any unknown key; the retired
// "checkpoint_every" stays accepted and ignored.
func TestUnknownRequestKeysAreRefused(t *testing.T) {
	_, hs := newTestServer(t, func(cfg *Config) { cfg.StateDir = t.TempDir() })
	for _, tc := range []struct{ path, body, key string }{
		{"/v1/analyze", `{"dataset":"house","topk":5}`, "topk"},
		{"/v1/analyze", `{"dataset":"house","budget":400}`, "budget"},
		{"/v1/jobs", `{"dataset":"house","max_filter":2}`, "max_filter"},
		{"/v1/analyze", `{"dataset":"house","topk_pruning":10}`, "topk_pruning"},
		{"/v1/jobs", `{"dataset":"house","topk_pruning":10}`, "topk_pruning"},
	} {
		status, data := postJSON(t, hs.URL+tc.path, tc.body, nil)
		if status != http.StatusBadRequest || errorCode(t, data) != CodeBadRequest || !strings.Contains(string(data), tc.key) {
			t.Errorf("%s %s: status %d, body %s; want 400 bad_request naming %q", tc.path, tc.body, status, data, tc.key)
		}
	}
	if status, data := postJSON(t, hs.URL+"/v1/analyze", `{"dataset":"house","top_k":3,"checkpoint_every":8}`, nil); status != http.StatusOK {
		t.Errorf("analyze with the retired checkpoint_every: status %d, body %s", status, data)
	}
}

// TestUnknownCountColumnIsRefused: /v1/analyze refuses COUNT or SUM over a
// column the dataset lacks, whatever the name, with 400 bad_request — the
// client's mistake, not a server failure — and the dataset's session
// answers the next well-formed request as a fresh server does. (That a
// refused measure takes none of the session's measure ordinals is
// TestUnknownCountColumnTakesNoOrdinal's, at the library.)
func TestUnknownCountColumnIsRefused(t *testing.T) {
	_, hs := newTestServer(t, nil)
	for _, agg := range []string{"COUNT", "SUM"} {
		for _, col := range []string{"Nope", "x1", "City"} {
			body := `{"dataset":"house","top_k":5,"measures":[{"agg":"` + agg + `","column":"` + col + `"},{"agg":"SUM","column":"Sales"}]}`
			status, data := postJSON(t, hs.URL+"/v1/analyze", body, nil)
			if status != http.StatusBadRequest || errorCode(t, data) != CodeBadRequest || !strings.Contains(string(data), "unknown measure column") {
				t.Fatalf("%s(%s): status %d, body %s", agg, col, status, data)
			}
		}
	}
	status, got := postJSON(t, hs.URL+"/v1/analyze", analyzeBody, nil)
	if status != http.StatusOK {
		t.Fatalf("well-formed request after refusals: status %d, body %s", status, got)
	}
	_, fresh := newTestServer(t, nil)
	if _, want := postJSON(t, fresh.URL+"/v1/analyze", analyzeBody, nil); !bytes.Equal(got, want) {
		t.Errorf("refused requests changed the next answer:\n got %s\nwant %s", got, want)
	}
}

// TestUnknownMeasureColumnIsRefusedBeforeWork: a job naming a measure over a
// column the dataset lacks is refused with 400 bad_request before its spec is
// journaled — no <state>/jobs/<id> directory appears — and such an analysis
// is refused before admission: serve.admitted does not move.
func TestUnknownMeasureColumnIsRefusedBeforeWork(t *testing.T) {
	state := t.TempDir()
	ob := obs.New(obs.Options{})
	_, hs := newTestServer(t, func(cfg *Config) { cfg.StateDir = state; cfg.Observer = ob })
	for _, agg := range []string{"COUNT", "SUM"} {
		body := `{"dataset":"house","measures":[{"agg":"SUM","column":"Sales"},{"agg":"` + agg + `","column":"nope"}]}`
		for _, path := range []string{"/v1/jobs", "/v1/analyze"} {
			status, data := postJSON(t, hs.URL+path, body, nil)
			if status != http.StatusBadRequest || errorCode(t, data) != CodeBadRequest || !strings.Contains(string(data), "unknown measure column") {
				t.Errorf("%s with %s(nope): status %d, body %s", path, agg, status, data)
			}
		}
	}
	if entries, err := os.ReadDir(filepath.Join(state, "jobs")); err != nil || len(entries) != 0 {
		t.Errorf("refused jobs left %d entries under the jobs directory (%v)", len(entries), err)
	}
	if n := ob.Snapshot().Counters["serve.admitted"]; n != 0 {
		t.Errorf("refused analyses were admitted %d times", n)
	}
	if status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody, nil); status != http.StatusOK {
		t.Fatalf("well-formed request: status %d, body %s", status, data)
	}
	if n := ob.Snapshot().Counters["serve.admitted"]; n != 1 {
		t.Errorf("a well-formed analysis moved serve.admitted to %d, want 1", n)
	}
}

// TestTauOutsideOpenUnitIntervalIs400: both endpoints reject a τ the scoring
// cannot use before any work starts — at τ ≤ 0 every MetaInsight unit would
// panic, at τ ≥ 1 no commonness can exist. Both used to accept it:
// /v1/analyze answered with no insights and /v1/jobs journaled the job.
func TestTauOutsideOpenUnitIntervalIs400(t *testing.T) {
	state := t.TempDir()
	_, hs := newTestServer(t, func(cfg *Config) { cfg.StateDir = state })
	for _, tau := range []string{"-0.3", "1", "1.5"} {
		for _, path := range []string{"/v1/analyze", "/v1/jobs"} {
			status, data := postJSON(t, hs.URL+path, `{"dataset":"house","tau":`+tau+`}`, nil)
			if status != http.StatusBadRequest || errorCode(t, data) != CodeBadRequest {
				t.Errorf("%s with tau %s: status %d, body %s", path, tau, status, data)
			}
		}
	}
}

func TestQuotaOverHTTP(t *testing.T) {
	_, hs := newTestServer(t, func(cfg *Config) {
		cfg.Quota = QuotaConfig{Rate: 0.001, Burst: 2} // two requests, then a long refill
	})
	hdr := map[string]string{"X-Tenant": "acme"}
	for i := 0; i < 2; i++ {
		if status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody, hdr); status != http.StatusOK {
			t.Fatalf("burst request %d: status %d, body %s", i, status, data)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/analyze", strings.NewReader(analyzeBody))
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || errorCode(t, data) != CodeQuotaExhausted {
		t.Fatalf("over-quota: status %d, body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// Another tenant is unaffected.
	if status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody, map[string]string{"X-Tenant": "other"}); status != http.StatusOK {
		t.Fatalf("independent tenant: status %d, body %s", status, data)
	}
}

// TestConcurrentTenantsShedTyped hammers the endpoint from several tenants
// with tight quotas: every response must be either a full success or a typed
// shed — never a hang, never an untyped failure.
func TestConcurrentTenantsShedTyped(t *testing.T) {
	_, hs := newTestServer(t, func(cfg *Config) {
		cfg.Quota = QuotaConfig{Rate: 0.001, Burst: 3}
		cfg.Admission = AdmissionConfig{MaxConcurrent: 2, MaxQueue: 4}
	})
	var wg sync.WaitGroup
	type outcome struct {
		status int
		code   ErrorCode
	}
	results := make(chan outcome, 24)
	for _, tenant := range []string{"a", "b", "c"} {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody,
					map[string]string{"X-Tenant": tenant})
				o := outcome{status: status}
				if status != http.StatusOK {
					o.code = errorCode(t, data)
				}
				results <- o
			}(tenant)
		}
	}
	wg.Wait()
	close(results)
	var ok, shed int
	for o := range results {
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			if o.code != CodeQuotaExhausted {
				t.Fatalf("429 with code %q", o.code)
			}
			shed++
		case http.StatusServiceUnavailable:
			if o.code != CodeQueueFull && o.code != CodeDeadlineUnattainable {
				t.Fatalf("503 with code %q", o.code)
			}
			shed++
		default:
			t.Fatalf("unexpected status %d", o.status)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded under load")
	}
	if shed == 0 {
		t.Fatal("no request was shed despite burst 3 per tenant")
	}
	// Each tenant can pass at most its burst through the quota gate.
	if ok > 9 {
		t.Fatalf("%d successes exceed the 3-tenant x burst-3 quota ceiling", ok)
	}
}

func TestJobLifecycleAndRestartRecovery(t *testing.T) {
	state := t.TempDir()
	csv := writeHouseCSV(t)
	mkCfg := func() Config {
		return Config{
			Datasets: []DatasetSpec{{Name: "house", Path: csv}},
			StateDir: state,
			Observer: obs.New(obs.Options{}),
		}
	}
	srv, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())

	status, data := postJSON(t, hs.URL+"/v1/jobs",
		`{"dataset":"house","top_k":5,"measures":[{"agg":"SUM","column":"Sales"}]}`,
		map[string]string{"X-Tenant": "acme"})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, data)
	}
	var ack SubmitResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" {
		t.Fatal("submit acknowledged without a job id")
	}

	st := waitJobDone(t, hs.URL, ack.ID, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("job finished in state %q (error %q)", st.State, st.Error)
	}
	if len(st.Insights) == 0 || st.InsightsFound == 0 {
		t.Fatal("done job carries no insights")
	}

	// The stream endpoint serves a finished job's final status immediately.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + ack.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stream), "event: done") {
		t.Fatalf("stream of a done job missing done event:\n%s", stream)
	}

	// Restart: a fresh server over the same state directory must load the
	// finished job from its journal with identical results.
	hs.Close()
	srv.Close()
	st2 := jobAfterRestart(t, mkCfg(), ack.ID)
	if st2.State != JobDone {
		t.Fatalf("restarted server reports state %q, want done", st2.State)
	}
	if string(st2.Insights) != string(st.Insights) {
		t.Fatal("recovered job's insights differ from the original result")
	}
}

// jobAfterRestart starts a fresh server over cfg's state directory and
// returns job id as that server reports it.
func jobAfterRestart(t *testing.T, cfg Config, id string) JobStatus {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	status, data := getJSON(t, hs.URL+"/v1/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("job lookup after restart: status %d, body %s", status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitJobDone(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		status, data := getJSON(t, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("job status: %d, body %s", status, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobsDisabledWithoutStateDir(t *testing.T) {
	_, hs := newTestServer(t, nil)
	status, data := postJSON(t, hs.URL+"/v1/jobs", `{"dataset":"house"}`, nil)
	if status != http.StatusServiceUnavailable || errorCode(t, data) != CodeShuttingDown {
		t.Fatalf("jobs without state dir: status %d, body %s", status, data)
	}
}

func TestDatasetsHealthzMetricsz(t *testing.T) {
	_, hs := newTestServer(t, nil)
	status, data := getJSON(t, hs.URL+"/v1/datasets")
	if status != http.StatusOK || !strings.Contains(string(data), `"house"`) {
		t.Fatalf("datasets: status %d, body %s", status, data)
	}
	if status, _ := getJSON(t, hs.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	// Drive one request so serve.* metrics exist, then read them back.
	if status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody, nil); status != http.StatusOK {
		t.Fatalf("analyze: status %d, body %s", status, data)
	}
	status, data = getJSON(t, hs.URL+"/metricsz")
	if status != http.StatusOK {
		t.Fatalf("metricsz: status %d", status)
	}
	for _, metric := range []string{"serve.admitted", "serve.analyze.ok"} {
		if !strings.Contains(string(data), metric) {
			t.Fatalf("metricsz missing %q:\n%s", metric, data)
		}
	}
}

// TestMetricszReportsCollector: /metricsz carries the process's GC CPU
// seconds, GC cycles and live heap, read at scrape time, and the two totals
// never decrease from one scrape to the next.
func TestMetricszReportsCollector(t *testing.T) {
	_, hs := newTestServer(t, nil)
	scrape := func() map[string]float64 {
		t.Helper()
		status, data := getJSON(t, hs.URL+"/metricsz")
		if status != http.StatusOK {
			t.Fatalf("metricsz: status %d", status)
		}
		var snap struct {
			Gauges map[string]float64 `json:"gauges"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		for _, g := range []string{"process.gc.cpu_seconds", "process.gc.cycles", "process.heap.live_bytes"} {
			if _, ok := snap.Gauges[g]; !ok {
				t.Fatalf("metricsz lacks gauge %q:\n%s", g, data)
			}
		}
		return snap.Gauges
	}
	first := scrape()
	runtime.GC()
	second := scrape()
	for _, g := range []string{"process.gc.cpu_seconds", "process.gc.cycles"} {
		if second[g] < first[g] {
			t.Errorf("%s went from %v to %v", g, first[g], second[g])
		}
	}
	if second["process.gc.cycles"] <= first["process.gc.cycles"] || second["process.heap.live_bytes"] <= 0 {
		t.Errorf("after a collection: cycles %v -> %v, live heap %v bytes", first["process.gc.cycles"], second["process.gc.cycles"], second["process.heap.live_bytes"])
	}
}

// TestDeadlineUnattainableOverHTTP wedges the single execution slot with a
// slow durable job, then sends a deadlined request: the admission controller
// must reject it immediately with the typed unattainable-deadline error.
func TestDeadlineUnattainableOverHTTP(t *testing.T) {
	state := t.TempDir()
	_, hs := newTestServer(t, func(cfg *Config) {
		cfg.StateDir = state
		cfg.Admission = AdmissionConfig{MaxConcurrent: 1, ExpectedServiceTime: time.Hour}
		cfg.UnitDelay = 50 * time.Millisecond
	})
	status, data := postJSON(t, hs.URL+"/v1/jobs",
		`{"dataset":"house","top_k":5,"measures":[{"agg":"SUM","column":"Sales"}]}`, nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, data)
	}
	// Wait for the job to occupy the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, hd := getJSON(t, hs.URL+"/healthz")
		var h struct {
			Inflight int `json:"inflight"`
		}
		if err := json.Unmarshal(hd, &h); err != nil {
			t.Fatal(err)
		}
		if h.Inflight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never occupied the execution slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status, data = postJSON(t, hs.URL+"/v1/analyze", analyzeBody,
		map[string]string{"X-Deadline-Ms": "100"})
	if status != http.StatusServiceUnavailable || errorCode(t, data) != CodeDeadlineUnattainable {
		t.Fatalf("deadlined request under saturation: status %d, body %s", status, data)
	}
}

// TestDeadlineCutMidMineIs206: a deadline that fires after admission and
// before the mine ends yields the best-effort 206. The dataset's session is
// swapped for one whose custom pattern evaluator, on its first call, blocks
// until the request's deadline has passed, so the cut lands mid-mine
// whatever the timing: an idle server admits at once, and the mine cannot
// end while the evaluator blocks.
func TestDeadlineCutMidMineIs206(t *testing.T) {
	ob := obs.New(obs.Options{})
	srv, hs := newTestServer(t, func(cfg *Config) { cfg.Observer = ob })
	const deadline = 50 * time.Millisecond
	var once sync.Once
	var until time.Time
	blocking := metainsight.CustomPattern{
		Name: "Blocking",
		Evaluate: func([]string, []float64) metainsight.PatternEvaluation {
			// The deadline was set before the mine began, so it has passed
			// once this first call has waited as long.
			once.Do(func() { until = time.Now().Add(deadline) })
			time.Sleep(time.Until(until))
			return metainsight.PatternEvaluation{}
		},
	}
	entry := srv.reg.entries["house"]
	sess, err := metainsight.NewSession(entry.ds, metainsight.WithCustomPatternTypes(blocking))
	if err != nil {
		t.Fatal(err)
	}
	_ = entry.sess.Close()
	entry.sess = sess

	status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody,
		map[string]string{"X-Deadline-Ms": strconv.FormatInt(deadline.Milliseconds(), 10)})
	if status != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206; body %s", status, data)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Warning == "" {
		t.Errorf("206 body not marked degraded with a warning: degraded %v, warning %q", resp.Degraded, resp.Warning)
	}
	var stats struct {
		Cancelled bool `json:"cancelled"`
	}
	if err := json.Unmarshal(resp.Stats, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Cancelled {
		t.Errorf("206 stats do not report the cut: %s", resp.Stats)
	}
	if n := ob.Snapshot().Counters["serve.analyze.cancelled"]; n != 1 {
		t.Errorf("serve.analyze.cancelled = %d, want 1", n)
	}
}
