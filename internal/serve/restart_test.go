package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRestartReminesOldStateDir starts a server over a state directory laid
// out by versions that checkpointed jobs: a job directory holding a
// spec.json with "checkpoint_every" and a ck/ checkpoint directory, but no
// result.json — a job killed mid-mine. The server re-mines the job from its
// spec to the same insights and stats, byte for byte, as the same job run
// uninterrupted, and removes ck/. A submit that still carries
// "checkpoint_every" is accepted: the key is ignored.
func TestRestartReminesOldStateDir(t *testing.T) {
	csv := writeHouseCSV(t)
	params := `{"dataset":"house","top_k":5,"budget_cost":30,"measures":[{"agg":"SUM","column":"Sales"}]}`

	// The uninterrupted run, submitted with the retired key.
	_, hs := newTestServer(t, func(cfg *Config) {
		cfg.Datasets = []DatasetSpec{{Name: "house", Path: csv}}
		cfg.StateDir = t.TempDir()
	})
	status, data := postJSON(t, hs.URL+"/v1/jobs", params[:len(params)-1]+`,"checkpoint_every":8}`, nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit with checkpoint_every: status %d, body %s", status, data)
	}
	var ack SubmitResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	want := waitJobDone(t, hs.URL, ack.ID, 30*time.Second)
	if want.State != JobDone || len(want.Insights) == 0 {
		t.Fatalf("uninterrupted job: state %q, error %q, insights %s", want.State, want.Error, want.Insights)
	}

	// The killed job's directory, as a checkpointing daemon left it.
	state := t.TempDir()
	const id = "job-00112233aabbccdd"
	dir := filepath.Join(state, "jobs", id)
	ck := filepath.Join(dir, "ck")
	if err := os.MkdirAll(ck, 0o777); err != nil {
		t.Fatal(err)
	}
	spec := `{"id":"` + id + `","tenant":"acme","params":` + params + `,"checkpoint_every":64,"submitted_unix":1700000000}`
	for name, body := range map[string]string{
		filepath.Join(dir, "spec.json"):      spec,
		filepath.Join(ck, "journal.ck"):      "MIJ1 torn",
		filepath.Join(ck, "snapshot.ck"):     "MIS1 stale",
		filepath.Join(ck, "snapshot.ck.tmp"): "",
	} {
		if err := os.WriteFile(name, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := New(Config{Datasets: []DatasetSpec{{Name: "house", Path: csv}}, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	revived := httptest.NewServer(srv.Handler())
	defer func() {
		revived.Close()
		srv.Close()
	}()
	got := waitJobDone(t, revived.URL, id, 30*time.Second)
	if got.State != JobDone {
		t.Fatalf("re-mined job: state %q, error %q", got.State, got.Error)
	}
	if string(got.Insights) != string(want.Insights) {
		t.Errorf("re-mined insights differ from the uninterrupted job's:\n got %s\nwant %s", got.Insights, want.Insights)
	}
	if string(got.Stats) != string(want.Stats) {
		t.Errorf("re-mined stats differ from the uninterrupted job's:\n got %s\nwant %s", got.Stats, want.Stats)
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("the stale checkpoint directory survived the restart: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "result.json")); err != nil {
		t.Errorf("the re-mined job wrote no result record: %v", err)
	}
}
