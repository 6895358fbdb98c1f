package metainsight_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"metainsight"
)

// TestSessionConcurrentAnalyze drives one shared session from many
// goroutines with heterogeneous requests and checks every concurrent outcome
// against that request's sequential baseline. Hermeticity is the contract
// under test: concurrent calls share only read-only indexes and the
// session's intern table, whose handles and scan plans any of them may build
// first, so interleaving must never change results or statistics. The mix
// includes a traced request and one with a MIN measure, the two shapes that
// once got a substrate of their own. Run it under -race (CI does).
func TestSessionConcurrentAnalyze(t *testing.T) {
	tab := fracTable(t, 900)
	sess, err := metainsight.NewSession(tab,
		metainsight.WithScanParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	reqs := []metainsight.Request{
		{TopK: 5},
		{TopK: 3, Tau: 0.7},
		{TopK: 4, Tau: 0.4},
		{TopK: 5, MaxFilters: 2},
		{TopK: 5, Observer: metainsight.NewObserver(metainsight.ObserverOptions{})},
		{TopK: 4, Measures: append(fracMeasures[:len(fracMeasures):len(fracMeasures)], metainsight.Min("Margin"))},
	}
	analyze := func(req metainsight.Request) (runFacts, error) {
		if req.Measures == nil {
			req.Measures = fracMeasures
		}
		if req.Observer != nil {
			// Each call traces into an observer of its own.
			req.Observer = metainsight.NewObserver(metainsight.ObserverOptions{})
		}
		an, err := sess.Analyze(context.Background(), req)
		if err != nil {
			return runFacts{}, err
		}
		return factsOf(an.Result, an.Insights), nil
	}

	base := make([]runFacts, len(reqs))
	for i, req := range reqs {
		facts, err := analyze(req)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		if len(facts.keys) == 0 {
			t.Fatalf("baseline %d mined nothing", i)
		}
		base[i] = facts
	}

	const goroutines = 4
	type outcome struct {
		who   string
		idx   int
		facts runFacts
		err   error
	}
	results := make(chan outcome, goroutines*len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range reqs {
				idx := (i + g) % len(reqs) // each goroutine walks a different order
				facts, err := analyze(reqs[idx])
				results <- outcome{who: fmt.Sprintf("g%d/req%d", g, idx), idx: idx, facts: facts, err: err}
			}
		}(g)
	}
	wg.Wait()
	close(results)
	for o := range results {
		if o.err != nil {
			t.Fatalf("%s: %v", o.who, o.err)
		}
		requireSameFacts(t, o.who, base[o.idx], o.facts)
	}
}
