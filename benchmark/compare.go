package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles are the cut points Python's statistics.quantiles(v, n=4) gives
// (the exclusive method), so a spread computed here equals the driver's.
// It needs at least two values.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// side is one file's values of one metric on one workload.
type side struct {
	n      int
	q      [3]float64
	spread float64 // inter-quartile distance as a share of the median
}

func sideOf(v []float64) side {
	s := side{n: len(v)}
	if len(v) == 1 {
		s.q = [3]float64{v[0], v[0], v[0]}
	} else if len(v) > 1 {
		s.q = quartiles(v)
	}
	if s.q[1] != 0 {
		s.spread = (s.q[2] - s.q[0]) / s.q[1]
	}
	return s
}

// verdict compares a change's median with the parent's. worse is how far
// the change's median is on the bad side of the parent's, as a share of the
// parent's. Where the parent's own runs spread wider than the bound, the
// pair cannot be told apart and is unresolved, not unchanged.
func verdict(parent, change side, better string, bound float64) (worse float64, word string) {
	if parent.q[1] != 0 {
		worse = (change.q[1] - parent.q[1]) / parent.q[1]
		if better == "higher" {
			worse = -worse
		}
	}
	switch {
	case bound == 0:
		return worse, ""
	case parent.spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

func readRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

func valuesOf(runs []runResult, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareFiles prints, per workload and metric, both files' medians and
// quartiles, how much worse b's median is than a's, and the verdict against
// the metric's bound. a is the parent, b the change (or the same commit
// again, for an A-A check).
func compareFiles(w io.Writer, a, b string) error {
	ra, err := readRuns(a)
	if err != nil {
		return err
	}
	rb, err := readRuns(b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-17s %-28s %-6s %2s %12s %12s %12s %7s | %2s %12s %12s %12s %7s | %8s %6s %s\n",
		"workload", "metric", "unit", "n", "a.q1", "a.median", "a.q3", "a.iqr%", "n", "b.q1", "b.median", "b.q3", "b.iqr%", "worse%", "bound%", "verdict")
	for _, wl := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			va, vb := valuesOf(ra, wl.name, d.Name), valuesOf(rb, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := sideOf(va), sideOf(vb)
			worse, word := verdict(sa, sb, d.Better, d.Bound)
			fmt.Fprintf(w, "%-17s %-28s %-6s %2d %12.6g %12.6g %12.6g %7.2f | %2d %12.6g %12.6g %12.6g %7.2f | %+8.2f %6.1f %s\n",
				wl.name, d.Name, d.Unit, sa.n, sa.q[0], sa.q[1], sa.q[2], 100*sa.spread,
				sb.n, sb.q[0], sb.q[1], sb.q[2], 100*sb.spread, 100*worse, 100*d.Bound, word)
		}
	}
	return nil
}
