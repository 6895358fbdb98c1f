package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"metainsight"
	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// cityDown is the columnar substrate with every unit scan under one City
// value failing: a backend that cannot answer part of the data.
type cityDown struct {
	*engine.ColumnarSubstrate
	city string
}

func (s cityDown) ScanUnit(sub model.Subspace, breakdown string) (*cache.Unit, int, error) {
	if v, _ := sub.Get("City"); v == s.city {
		return nil, 0, errors.New("city backend down")
	}
	return s.ColumnarSubstrate.ScanUnit(sub, breakdown)
}

// TestDegradedContract drives the daemon over a substrate that fails some
// queries, with any failure flagged: the synchronous endpoint answers 206
// with the best-effort insights and a warning, and a durable job ends done
// and degraded — before and after a restart reads it back from result.json.
func TestDegradedContract(t *testing.T) {
	csv := writeHouseCSV(t)
	ds, err := metainsight.OpenCSV(csv)
	if err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	ob := obs.New(obs.Options{})
	mkCfg := func() Config {
		return Config{
			Datasets: []DatasetSpec{{Name: "house", Path: csv}},
			StateDir: state,
			Observer: ob,
			SessionOptions: []metainsight.Option{
				metainsight.WithSubstrate(cityDown{engine.NewColumnarSubstrate(ds), "Oakland"}),
				metainsight.WithResilience(metainsight.ResilienceConfig{DegradedThreshold: -1}),
			},
		}
	}
	srv, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())

	status, data := postJSON(t, hs.URL+"/v1/analyze", analyzeBody, nil)
	if status != http.StatusPartialContent {
		t.Fatalf("analyze: status %d, want 206; body %s", status, data)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	var insights []json.RawMessage
	if err := json.Unmarshal(resp.Insights, &insights); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Warning == "" || len(insights) == 0 {
		t.Fatalf("degraded %t, warning %q, %d insights; want true, a warning, some", resp.Degraded, resp.Warning, len(insights))
	}
	if n := ob.Snapshot().Counters["serve.analyze.degraded"]; n != 1 {
		t.Errorf("serve.analyze.degraded = %d, want 1", n)
	}

	status, data = postJSON(t, hs.URL+"/v1/jobs",
		`{"dataset":"house","top_k":5,"measures":[{"agg":"SUM","column":"Sales"}]}`, nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, data)
	}
	var ack SubmitResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, hs.URL, ack.ID, 30*time.Second)
	if st.State != JobDone || !st.Degraded || len(st.Insights) == 0 {
		t.Fatalf("job state %q, degraded %t, error %q; want done, degraded, with insights", st.State, st.Degraded, st.Error)
	}

	hs.Close()
	srv.Close()
	st2 := jobAfterRestart(t, mkCfg(), ack.ID)
	if st2.State != JobDone || !st2.Degraded || string(st2.Insights) != string(st.Insights) {
		t.Fatalf("after restart: state %q, degraded %t, same insights %t; want done, degraded, same",
			st2.State, st2.Degraded, string(st2.Insights) == string(st.Insights))
	}
}
