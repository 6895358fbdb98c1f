package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := sideOf([]float64{99, 100, 101, 100, 100})
	wide := sideOf([]float64{70, 100, 130, 85, 115})
	cases := []struct {
		name         string
		parent       side
		change       []float64
		better, want string
	}{
		{"within bound", tight, []float64{104, 105, 106}, "lower", "ok"},
		{"slower past bound", tight, []float64{119, 120, 121}, "lower", "REGRESSION"},
		{"faster", tight, []float64{50, 51, 52}, "lower", "ok"},
		{"throughput fell past bound", tight, []float64{79, 80, 81}, "higher", "REGRESSION"},
		{"throughput rose", tight, []float64{150, 151, 152}, "higher", "ok"},
		{"parent spread wider than bound", wide, []float64{119, 120, 121}, "lower", "unresolved"},
	}
	for _, c := range cases {
		_, got := verdict(c.parent, sideOf(c.change), c.better, 0.10)
		if got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, got := verdict(tight, sideOf([]float64{500}), "lower", 0); got != "" {
		t.Errorf("per-layer metric (no bound) got verdict %q", got)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, op []float64) string {
		var buf bytes.Buffer
		for i, v := range op {
			r := runResult{Workload: "warm_scan_1m", Seed: int64(i), Metrics: map[string]metric{
				"op_p50_ms": {v, "ms"}, "miner.mine_ms": {v / 2, "ms"},
			}}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100, 102})
	b := write("b.jsonl", []float64{130, 131, 129, 130, 132})
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	var opLine, layerLine string
	for _, l := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(l, " op_p50_ms "):
			opLine = l
		case strings.Contains(l, " miner.mine_ms "):
			layerLine = l
		}
	}
	if !strings.Contains(opLine, "REGRESSION") || !strings.Contains(opLine, "+30.00") {
		t.Errorf("op_p50_ms line: %q", opLine)
	}
	if layerLine == "" || strings.Contains(layerLine, "REGRESSION") {
		t.Errorf("per-layer line: %q", layerLine)
	}
	if err := compareFiles(&out, a, filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}
