package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// writeRichCSV materializes a 4-dimension, 2-measure fixture dense enough to
// mine hundreds of MetaInsights — the chaos test needs a job long enough to
// kill mid-flight.
func writeRichCSV(t *testing.T, dir string) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	b.WriteString("Region,Product,Channel,Quarter,Sales,Units\n")
	for _, r := range []string{"North", "South", "East", "West"} {
		for _, p := range []string{"A", "B", "C", "D", "E"} {
			for _, c := range []string{"Web", "Store", "Partner"} {
				for _, q := range []string{"Q1", "Q2", "Q3", "Q4"} {
					fmt.Fprintf(&b, "%s,%s,%s,%s,%d,%d\n", r, p, c, q, 50+rng.Intn(100), 5+rng.Intn(20))
				}
			}
		}
	}
	path := filepath.Join(dir, "rich.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// daemon is one metainsightd subprocess under test control.
type daemon struct {
	cmd *exec.Cmd
	url string
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "metainsightd")
	out, err := exec.Command("go", "build", "-o", bin, "metainsight/cmd/metainsightd").CombinedOutput()
	if err != nil {
		t.Fatalf("building metainsightd: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary and parses its "listening on host:port"
// line for the ephemeral address.
func startDaemon(t *testing.T, bin string, args, extraEnv []string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- rest
				return
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = cmd.Process.Kill()
			t.Fatal("daemon exited before announcing its address")
		}
		return &daemon{cmd: cmd, url: "http://" + a}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("daemon never announced its address")
		return nil
	}
}

func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()
}

func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
}

func (d *daemon) getJob(t *testing.T, id string) JobStatus {
	t.Helper()
	status, data := getJSON(t, d.url+"/v1/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("job status: %d, body %s", status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

const chaosJobBody = `{"dataset":"rich","top_k":5}`

func submitChaosJob(t *testing.T, d *daemon, tenant string) string {
	t.Helper()
	status, data := postJSON(t, d.url+"/v1/jobs", chaosJobBody, map[string]string{"X-Tenant": tenant})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, data)
	}
	var ack SubmitResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	return ack.ID
}

func waitDaemonJobDone(t *testing.T, d *daemon, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := d.getJob(t, id)
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, st.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerSmokeKill9 is the chaos acceptance test: concurrent tenants with
// some over quota, a kill -9 of the daemon mid-job, a restart, and the
// requirement that the job the restarted daemon re-mines from its journaled
// spec matches an uninterrupted run byte for byte, insights and stats alike.
func TestServerSmokeKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test; skipped in -short")
	}
	bin := buildDaemon(t)
	fixtures := t.TempDir()
	rich := writeRichCSV(t, fixtures)
	house := writeHouseCSV(t)

	dataArgs := []string{"-data", "rich=" + rich, "-data", "house=" + house}

	// Phase 1 — baseline: the same job spec on a pristine state directory,
	// never interrupted.
	baseState := filepath.Join(t.TempDir(), "state")
	base := startDaemon(t, bin, append(dataArgs, "-state", baseState), nil)
	baseID := submitChaosJob(t, base, "jobs")
	baseSt := waitDaemonJobDone(t, base, baseID, 2*time.Minute)
	if baseSt.State != JobDone {
		t.Fatalf("baseline job failed: %q", baseSt.Error)
	}
	if baseSt.InsightsFound < 50 {
		t.Fatalf("baseline mined only %d MetaInsights; fixture too small to kill mid-job", baseSt.InsightsFound)
	}
	base.terminate(t)

	// Phase 2 — chaos: throttled job (5ms per discovery ≈ seconds of
	// runtime), tight quotas, a tenant flooding past its burst, then
	// kill -9 while the job is provably mid-flight.
	chaosState := filepath.Join(t.TempDir(), "state")
	chaos := startDaemon(t, bin,
		append(dataArgs, "-state", chaosState, "-quota-rate", "0.001", "-quota-burst", "3"),
		[]string{"METAINSIGHTD_UNIT_DELAY_MS=5"})
	jobID := submitChaosJob(t, chaos, "jobs")

	// Over-quota flood from a second tenant: burst 3 passes, the rest must
	// shed with the typed 429 — and the admitted ones must complete.
	var okN, shedN int
	for i := 0; i < 6; i++ {
		status, data := postJSON(t, chaos.url+"/v1/analyze",
			`{"dataset":"house","top_k":3,"measures":[{"agg":"SUM","column":"Sales"}]}`,
			map[string]string{"X-Tenant": "flood"})
		switch status {
		case http.StatusOK:
			okN++
		case http.StatusTooManyRequests:
			if code := errorCode(t, data); code != CodeQuotaExhausted {
				t.Fatalf("429 with code %q", code)
			}
			shedN++
		default:
			t.Fatalf("flood request %d: unexpected status %d, body %s", i, status, data)
		}
	}
	if okN == 0 || shedN == 0 {
		t.Fatalf("flood split ok=%d shed=%d; want both outcomes", okN, shedN)
	}

	// Let the job make real progress, then kill the process without any
	// chance to clean up.
	deadline := time.Now().Add(time.Minute)
	for {
		st := chaos.getJob(t, jobID)
		if st.State == JobDone {
			t.Fatal("job finished before the kill; raise the unit delay")
		}
		if st.State == JobRunning && st.InsightsFound >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached kill point (state %q, found %d)", st.State, st.InsightsFound)
		}
		time.Sleep(10 * time.Millisecond)
	}
	chaos.kill9(t)

	// Phase 3 — restart over the same state directory: the journaled spec
	// must be picked up, re-mined from the start, and finish with the
	// baseline's exact results.
	revived := startDaemon(t, bin, append(dataArgs, "-state", chaosState), nil)
	defer revived.terminate(t)
	reSt := waitDaemonJobDone(t, revived, jobID, 2*time.Minute)
	if reSt.State != JobDone {
		t.Fatalf("re-mined job failed: %q", reSt.Error)
	}
	if string(reSt.Insights) != string(baseSt.Insights) {
		t.Fatalf("re-mined insights differ from uninterrupted run:\nre-mined: %s\nbaseline: %s",
			reSt.Insights, baseSt.Insights)
	}
	if string(reSt.Stats) != string(baseSt.Stats) {
		t.Fatalf("re-mined stats differ from uninterrupted run:\nre-mined: %s\nbaseline: %s",
			reSt.Stats, baseSt.Stats)
	}
}
