package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the program must name the same workloads and metrics:
// the driver reads the one and parses the output of the other.
func TestManifestMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, program %q (or their why differs)", i, m.Workloads[i].Name, w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := m.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, g, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		g := m.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, g, d)
		}
	}
}

// The quick scale runs every workload end to end — gate and kernel on, a
// 100 k-row generated table, a half-second op loop — so that a change to an
// API the harness calls shows up as a failing test, not as a benchmark that
// no longer builds. It asserts presence and units, never values.
func TestQuickScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := runConfig{w: w, seed: 7, seconds: 0.5, quick: true, trace: trace, dir: t.TempDir(), traceDir: t.TempDir()}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v attempted %d failed %d: %v", res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				line, err := res.line()
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("result line has keys %v (%v), want exactly correct, attempted, failed, metrics", keys, err)
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %g; it must never be 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				if res.Coverage < 0.95 {
					t.Errorf("an op's child self times cover %.3f of its span, want at least 0.95", res.Coverage)
				}
				if _, err := os.Stat(cfg.spansPath()); err != nil {
					t.Errorf("traced pass wrote no spans: %v", err)
				}
			})
		}
	}
}
