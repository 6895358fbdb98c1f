package main

import (
	"errors"
	"math"
	"testing"
)

func tenScores() []float64 {
	return []float64{0.9, 0.8, 0.85, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
}

func TestCheckerAcceptsRepeatedResult(t *testing.T) {
	c := newChecker()
	r := ranked{key: "t", scores: tenScores(), payload: []byte("same bytes")}
	if !c.op([]ranked{r}, nil) || !c.op([]ranked{r}, nil) {
		t.Fatalf("identical results rejected: %v", c.problems)
	}
	if c.attempted != 2 || c.failed != 0 {
		t.Errorf("attempted %d failed %d, want 2 0", c.attempted, c.failed)
	}
	if d := c.digests(); len(d) != 1 {
		t.Errorf("digests %v, want one", d)
	}
}

// A result with one insight dropped must fail the run: the count is off
// and, were it not, the digest would be.
func TestCheckerRejectsDroppedInsight(t *testing.T) {
	c := newChecker()
	good := ranked{key: "t", scores: tenScores(), payload: []byte(`[1,2,3,4,5,6,7,8,9,10]stats`)}
	if !c.op([]ranked{good}, nil) {
		t.Fatal(c.problems)
	}
	short := ranked{key: "t", scores: tenScores()[:9], payload: []byte(`[1,2,3,4,5,6,7,8,9]stats`)}
	if c.op([]ranked{short}, nil) {
		t.Fatal("nine insights accepted")
	}
	// Same count, different content: only the digest can tell.
	swapped := ranked{key: "t", scores: tenScores(), payload: []byte(`[1,2,3,4,5,6,7,8,9,11]stats`)}
	if c.op([]ranked{swapped}, nil) {
		t.Fatal("result differing from the first one accepted")
	}
	if c.attempted != 3 || c.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 2", c.attempted, c.failed)
	}
	res := &runResult{Failed: c.failed, Correct: c.failed == 0}
	if res.Correct {
		t.Error("run with failed ops reported correct")
	}
}

func TestCheckerInvariants(t *testing.T) {
	bad := func(name string, out []ranked, err error) {
		t.Helper()
		c := newChecker()
		if c.op(out, err) {
			t.Errorf("%s accepted", name)
		}
	}
	bad("error", nil, errors.New("boom"))
	bad("no output", nil, nil)
	nan := tenScores()
	nan[3] = math.NaN()
	bad("NaN score", []ranked{{key: "t", scores: nan, payload: []byte("x")}}, nil)
	big := tenScores()
	big[0] = 1.5
	bad("score above 1", []ranked{{key: "t", scores: big, payload: []byte("x")}}, nil)
	// In a sweep one bad table fails the whole op.
	bad("sweep with a short table", []ranked{
		{key: "a", scores: tenScores(), payload: []byte("x")},
		{key: "b", scores: tenScores()[:3], payload: []byte("y")},
	}, nil)

	c := newChecker()
	if !c.op([]ranked{{key: "healthz", plain: true}}, nil) {
		t.Errorf("plain reply rejected: %v", c.problems)
	}
}
