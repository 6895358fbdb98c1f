package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"metainsight/internal/dataset"
	"metainsight/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the daemon golden files under testdata/")

// goldenTables are the paper's Figure-6 tables, served under these names.
var goldenTables = []struct {
	name  string
	build func() *dataset.Table
}{
	{"sales_forecast", workload.SalesForecast},
	{"tablet_sales", workload.TabletSales},
	{"credit_card", workload.CreditCard},
	{"hotel_booking", workload.HotelBooking},
}

// goldenShapes are the /v1/analyze request shapes checked per table, as
// JSON fragments appended after the dataset name.
var goldenShapes = []struct{ name, params string }{
	{"default", ``},
	{"topk5_filters2", `,"top_k":5,"max_filters":2`},
	{"budget400", `,"budget_cost":400`},
}

// goldenJobParams is the cost-budgeted job submitted once per table.
const goldenJobParams = `,"budget_cost":400`

// goldenDataset writes tab as dir/name.csv and registers it under name as
// the goldens serve a Figure-6 table.
func goldenDataset(t *testing.T, dir, name string, tab *dataset.Table) DatasetSpec {
	t.Helper()
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := workload.WriteCSV(tab, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return DatasetSpec{Name: name, Path: path, MaxCardinality: 100}
}

// TestDaemonGoldens pins what the daemon answers on the Figure-6 tables:
// the insights and stats of three /v1/analyze shapes and of one
// cost-budgeted job per table, byte for byte against
// testdata/<table>.<shape>.json. Run with -update to rewrite the files; a
// diff in them is a change in what clients receive.
func TestDaemonGoldens(t *testing.T) {
	dir := t.TempDir()
	var specs []DatasetSpec
	for _, tb := range goldenTables {
		specs = append(specs, goldenDataset(t, dir, tb.name, tb.build()))
	}
	srv, err := New(Config{Datasets: specs, StateDir: filepath.Join(dir, "state")})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	jobs := make(map[string]string, len(goldenTables))
	for _, tb := range goldenTables {
		status, data := postJSON(t, hs.URL+"/v1/jobs", `{"dataset":"`+tb.name+`"`+goldenJobParams+`}`, nil)
		if status != http.StatusAccepted {
			t.Fatalf("%s: submit: status %d, body %s", tb.name, status, data)
		}
		var ack SubmitResponse
		if err := json.Unmarshal(data, &ack); err != nil {
			t.Fatal(err)
		}
		jobs[tb.name] = ack.ID
	}
	for _, tb := range goldenTables {
		for _, sh := range goldenShapes {
			status, data := postJSON(t, hs.URL+"/v1/analyze", `{"dataset":"`+tb.name+`"`+sh.params+`}`, nil)
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d, body %s", tb.name, sh.name, status, data)
			}
			var resp AnalyzeResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tb.name+"."+sh.name, resp.Insights, resp.Stats)
		}
	}
	for _, tb := range goldenTables {
		st := waitJobDone(t, hs.URL, jobs[tb.name], 5*time.Minute)
		if st.State != JobDone {
			t.Fatalf("%s: job finished %q: %s", tb.name, st.State, st.Error)
		}
		checkGolden(t, tb.name+".job", st.Insights, st.Stats)
	}
}

// checkGolden compares one response's insights and stats with
// testdata/<name>.json, or rewrites the file under -update. The file holds
// the two raw JSON values indented, which changes only whitespace the
// server's encoding never emits, so equal files mean equal bytes.
func checkGolden(t *testing.T, name string, insights, stats json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	raw := `{"insights":` + string(insights) + `,"stats":` + string(stats) + `}`
	if err := json.Indent(&buf, []byte(raw), "", "  "); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	buf.WriteByte('\n')
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create it)", name, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s: response differs from %s (run with -update to accept it):\n got: %.400s\nwant: %.400s",
			name, path, buf.Bytes(), want)
	}
}
