package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A hand-built tree:
//
//	op        [0, 100)
//	├ load    [0, 40)
//	│ └ parse [5, 25)
//	├ mine    [40, 90)   overlaps rank by 10
//	└ rank    [80, 95)
func handBuilt() []span {
	return []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "load", StartNS: 0, EndNS: 40},
		{ID: 2, Parent: 1, Op: 0, Name: "parse", StartNS: 5, EndNS: 25},
		{ID: 3, Parent: 0, Op: 0, Name: "mine", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 0, Op: 0, Name: "rank", StartNS: 80, EndNS: 95},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(handBuilt())
	want := map[int]int64{
		0: 5,  // 100 − union of children [0, 95)
		1: 20, // 40 − parse's 20
		2: 20,
		3: 50,
		4: 15,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeClipsChildToParent(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "p", StartNS: 10, EndNS: 20},
		{ID: 1, Parent: 0, Name: "c", StartNS: 5, EndNS: 30},
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("parent fully covered by an overhanging child has self time %d, want 0", got)
	}
}

func TestChildCoverage(t *testing.T) {
	// Descendants' self times: load 20 + parse 20 + mine 50 + rank 15 = 105
	// over an op of 100 — the overlap of mine and rank counts in both, which
	// a sequential walk never produces; what matters is that a gap shows.
	if got := childCoverage(handBuilt(), 0); got != 1.05 {
		t.Errorf("coverage = %g, want 1.05", got)
	}
	gappy := []span{
		{ID: 0, Parent: -1, Op: 3, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Op: 3, Name: "mine", StartNS: 0, EndNS: 60},
	}
	if got := childCoverage(gappy, 3); got != 0.6 {
		t.Errorf("coverage with a 40 %% gap = %g, want 0.6", got)
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	r := newRecorder()
	r.setOp(7)
	r.in("op", func() {
		r.in("load", func() {})
		r.in("mine", func() { r.in("scan", func() {}) })
	})
	if len(r.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(r.spans))
	}
	parents := map[string]int{}
	for _, s := range r.spans {
		parents[s.Name] = s.Parent
		if s.Op != 7 {
			t.Errorf("span %s has op %d, want 7", s.Name, s.Op)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if parents["op"] != -1 || parents["load"] != 0 || parents["mine"] != 0 || parents["scan"] != 2 {
		t.Errorf("parents %v", parents)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.write(path, traceFile{Workload: "w", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "w" || tf.Seed != 3 || len(tf.Spans) != 4 || len(tf.SelfMS) != 4 {
		t.Errorf("trace file round trip: %+v", tf)
	}

	// A nil recorder runs the function and records nothing.
	var none *recorder
	ran := false
	none.in("x", func() { ran = true })
	none.setOp(1)
	if !ran {
		t.Error("nil recorder did not run the function")
	}
}
