package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"metainsight/internal/workload"
)

// TestRestartReminesOldStateDir starts a server over a state directory laid
// out by older versions, with two jobs killed mid-mine (no result.json). One
// was journaled by a version that checkpointed jobs: its spec.json carries
// "checkpoint_every" and its directory a ck/ checkpoint directory. The other
// was journaled by a version with S*-bounded early termination: its params
// carry "topk_pruning", which on Credit Card cut units and changed the top
// ten. The server re-mines each job from its spec to the same insights and
// stats, byte for byte, as the same job run uninterrupted and uncut, and
// removes ck/. A submit that still carries "checkpoint_every" is accepted:
// the key is ignored.
func TestRestartReminesOldStateDir(t *testing.T) {
	dir := t.TempDir()
	datasets := []DatasetSpec{
		{Name: "house", Path: writeHouseCSV(t)},
		goldenDataset(t, dir, "card", workload.CreditCard()),
	}
	params := `{"dataset":"house","top_k":5,"budget_cost":30,"measures":[{"agg":"SUM","column":"Sales"}]}`
	const cardParams = `{"dataset":"card","top_k":10}`

	// The uninterrupted runs, the house job submitted with the retired key.
	_, hs := newTestServer(t, func(cfg *Config) {
		cfg.Datasets = datasets
		cfg.StateDir = t.TempDir()
	})
	var want []JobStatus
	for _, body := range []string{params[:len(params)-1] + `,"checkpoint_every":8}`, cardParams} {
		status, data := postJSON(t, hs.URL+"/v1/jobs", body, nil)
		if status != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, body %s", body, status, data)
		}
		var ack SubmitResponse
		if err := json.Unmarshal(data, &ack); err != nil {
			t.Fatal(err)
		}
		done := waitJobDone(t, hs.URL, ack.ID, 30*time.Second)
		if done.State != JobDone || len(done.Insights) == 0 {
			t.Fatalf("uninterrupted job %s: state %q, error %q, insights %s", body, done.State, done.Error, done.Insights)
		}
		want = append(want, done)
	}

	// The killed jobs' directories, as the older daemons left them.
	state := t.TempDir()
	const ckID, prunedID = "job-00112233aabbccdd", "job-00112233aabbccee"
	ck := filepath.Join(state, "jobs", ckID, "ck")
	for name, body := range map[string]string{
		filepath.Join(state, "jobs", ckID, "spec.json"): `{"id":"` + ckID + `","tenant":"acme","params":` + params +
			`,"checkpoint_every":64,"submitted_unix":1700000000}`,
		filepath.Join(ck, "journal.ck"):      "MIJ1 torn",
		filepath.Join(ck, "snapshot.ck"):     "MIS1 stale",
		filepath.Join(ck, "snapshot.ck.tmp"): "",
		filepath.Join(state, "jobs", prunedID, "spec.json"): `{"id":"` + prunedID + `","tenant":"acme","params":` +
			`{"dataset":"card","top_k":10,"topk_pruning":10},"submitted_unix":1700000000}`,
	} {
		if err := os.MkdirAll(filepath.Dir(name), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := New(Config{Datasets: datasets, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	revived := httptest.NewServer(srv.Handler())
	defer func() {
		revived.Close()
		srv.Close()
	}()
	for i, id := range []string{ckID, prunedID} {
		uncut := want[i]
		got := waitJobDone(t, revived.URL, id, 30*time.Second)
		if got.State != JobDone {
			t.Fatalf("%s: re-mined job: state %q, error %q", id, got.State, got.Error)
		}
		if string(got.Insights) != string(uncut.Insights) {
			t.Errorf("%s: re-mined insights differ from the uninterrupted job's:\n got %s\nwant %s", id, got.Insights, uncut.Insights)
		}
		if string(got.Stats) != string(uncut.Stats) {
			t.Errorf("%s: re-mined stats differ from the uninterrupted job's:\n got %s\nwant %s", id, got.Stats, uncut.Stats)
		}
		if _, err := os.Stat(filepath.Join(state, "jobs", id, "result.json")); err != nil {
			t.Errorf("%s: the re-mined job wrote no result record: %v", id, err)
		}
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("the stale checkpoint directory survived the restart: %v", err)
	}
}
