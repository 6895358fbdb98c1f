package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one operation share Op; Parent is the span that
// caused this one (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced pass runs the same code without the bookkeeping.
// It is driven from one goroutine: the traced pass walks the layers step by
// step.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int // open spans, innermost last
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), op: opSetup} }

// setOp tags the spans that follow with an operation id (negative: set-up and
// the layer probes, outside any operation).
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = op
	}
}

// in runs fn inside a span named name, a child of the innermost open span,
// and returns fn's duration.
func (r *recorder) in(name string, fn func()) time.Duration {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name})
	r.stack = append(r.stack, id)
	start := time.Now()
	fn()
	end := time.Now()
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].StartNS = int64(start.Sub(r.t0))
	r.spans[id].EndNS = int64(end.Sub(r.t0))
	return end.Sub(start)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are not counted
// twice, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// childCoverage is, for the root span of operation op, the share of its
// duration that its descendants' self times account for: 1 means the walk
// left no gap between the layer calls.
func childCoverage(spans []span, op int) float64 {
	self := selfTimes(spans)
	var root *span
	var kids int64
	for i, s := range spans {
		if s.Op != op {
			continue
		}
		if s.Parent < 0 || spans[s.Parent].Op != op {
			root = &spans[i]
			continue
		}
		kids += self[s.ID]
	}
	if root == nil || root.dur() == 0 {
		return 0
	}
	return float64(kids) / float64(root.dur())
}

// traceFile is what the traced pass writes when it ends. Span times are raw
// wall time; RefScale is, per operation id, the factor that turns them into
// the reference time the per-layer metrics are reported in.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostInfo           `json:"host"`
	RefScale map[int]float64    `json:"ref_scale_by_op"`
	Spans    []span             `json:"spans"`
	SelfMS   map[string]float64 `json:"self_ms_by_layer"`
}

func (r *recorder) write(path string, tf traceFile) error {
	tf.Spans = r.spans
	self := selfTimes(r.spans)
	tf.SelfMS = map[string]float64{}
	for _, s := range r.spans {
		tf.SelfMS[s.Name] += float64(self[s.ID]) / 1e6
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
