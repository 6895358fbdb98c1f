package serve

import (
	"bytes"
	"testing"
)

// FuzzAnalyzeParams drives the daemon's request decoding: a body is decoded
// as /v1/analyze decodes it (unknown keys refused), lowered by request() and its measures checked
// against a small registered dataset by checkMeasures. Nothing may panic,
// and every refusal checkMeasures makes must be a typed 4xx error.
func FuzzAnalyzeParams(f *testing.F) {
	reg, err := newRegistry([]DatasetSpec{{Name: "house", Path: writeHouseCSV(f)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(reg.close)
	entry, _ := reg.get("house")
	for _, seed := range []string{
		`{"dataset":"house"}`,
		`{"dataset":"house","top_k":5,"max_filters":2,"budget_cost":400,"topk_pruning":10,"trace":true}`,
		`{"dataset":"house","measures":[{"agg":"MEDIAN","column":"Sales"}]}`,
		`{"dataset":"house","measures":[{"agg":" sum ","column":"Sales"},{"agg":"count","column":"*"}]}`,
		`{"dataset":"house","measures":[{"agg":"SUM","column":"nope"}]}`,
		`{"dataset":"house","measures":[{"agg":"COUNT","column":"City"}]}`,
		`{"dataset":"house","measures":[{"agg":"AVG","column":""}]}`,
		`{"dataset":"house","top_k":-1}`,
		`{"dataset":"house","max_filters":-3,"topk_pruning":-1}`,
		`{"dataset":"house","budget_cost":-0.5}`,
		`{"dataset":"house","tau":1}`,
		`{"dataset":"house","tau":-0.3}`,
		`{"dataset":"house","tau":0.999999}`,
		`{"dataset":"house","tau":5e-324}`,
		`{"dataset":"","measures":null}`,
		`{"dataset":"house","top_k":1e400}`,
		`[]`,
		`{"dataset":"house","measures":[{}]}`,
		`{"dataset":"house","topk":5,"budget":400}`,
		`{"dataset":"house","checkpoint_every":8}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		params, err := decodeParams(bytes.NewReader(body))
		if err != nil {
			return // 400: decoding request body
		}
		req, err := params.request()
		if err != nil {
			return // 400: the request's own error
		}
		if aerr := checkMeasures(entry, req); aerr != nil && (aerr.HTTPStatus() < 400 || aerr.HTTPStatus() >= 500 || aerr.Code != CodeBadRequest) {
			t.Fatalf("%s: refused with %d %s: %s", body, aerr.HTTPStatus(), aerr.Code, aerr.Message)
		}
	})
}
