package metainsight

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"metainsight/internal/engine"
	"metainsight/internal/miner"
)

// lruTable builds a small in-package fixture (the external houseRecords
// helper lives in metainsight_test and is out of reach here).
func lruTable(t *testing.T) *Dataset {
	t.Helper()
	header := []string{"City", "Month", "Sales", "Cost", "Units"}
	var records [][]string
	for c, city := range []string{"A", "B", "C"} {
		for m := 0; m < 12; m++ {
			records = append(records, []string{
				city, fmt.Sprintf("M%02d", m), strconv.Itoa(10 + (m*7+len(city))%90),
				strconv.Itoa(5 + (m*3+c)%40), strconv.Itoa(1 + (m+c)%9),
			})
		}
	}
	tab, err := FromRecords("lru", header, records)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// minOver is a request whose MIN/MAX column set — the one substrate-shaping
// input a request can vary — is the subset of lruTable's measure columns
// selected by mask.
func minOver(mask int) Request {
	ms := []Measure{Sum("Sales")}
	for b, col := range []string{"Sales", "Cost", "Units"} {
		if mask>>b&1 == 1 {
			ms = append(ms, Min(col))
		}
	}
	return Request{TopK: 3, Measures: ms}
}

// TestSessionSubstrateLRUBound pins the bounded-registry contract: distinct
// substrate-shaping configurations (here: distinct MIN/MAX column sets, the
// shape a resident server produces under heterogeneous measure requests)
// must not grow the registry past the configured limit.
func TestSessionSubstrateLRUBound(t *testing.T) {
	tab := lruTable(t)
	s, err := NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.subLimit = 2
	for mask := 1; mask <= 6; mask++ {
		if _, err := s.Analyze(context.Background(), minOver(mask)); err != nil {
			t.Fatalf("analyze %d: %v", mask, err)
		}
		if n := s.substrateCount(); n > 2 {
			t.Fatalf("after %d distinct column sets the registry holds %d substrates, limit 2", mask, n)
		}
	}
	if n := s.substrateCount(); n != 2 {
		t.Fatalf("registry holds %d substrates after 6 distinct column sets, want the limit 2", n)
	}
	// Repeating one configuration must not grow the registry at all.
	for i := 0; i < 3; i++ {
		if _, err := s.Analyze(context.Background(), minOver(7)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.substrateCount(); n != 2 {
		t.Fatalf("repeated identical config left %d substrates, want 2", n)
	}
}

// TestSessionRequestObserverNotRetained: a substrate bakes its observer in,
// so one built for a request-scoped observer can never be hit again and must
// not enter the registry — the shape a resident server produces when every
// request traces. The session's own warm substrate stays put and keeps
// serving untraced requests.
func TestSessionRequestObserverNotRetained(t *testing.T) {
	s, err := NewSession(lruTable(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	soleSubstrate := func() Substrate {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.subs) != 1 {
			t.Fatalf("registry holds %d substrates, want 1", len(s.subs))
		}
		for _, e := range s.subs {
			return e.sub
		}
		return nil
	}
	if _, err := s.Analyze(context.Background(), Request{TopK: 3}); err != nil {
		t.Fatal(err)
	}
	warm := soleSubstrate()
	for i := 0; i < 20; i++ {
		req := Request{TopK: 3, Observer: NewObserver(ObserverOptions{})}
		if _, err := s.Analyze(context.Background(), req); err != nil {
			t.Fatalf("traced analyze %d: %v", i, err)
		}
		if n := s.substrateCount(); n > 1 {
			t.Fatalf("after %d traced requests the registry holds %d substrates, want 1", i+1, n)
		}
	}
	if _, err := s.Analyze(context.Background(), Request{TopK: 3}); err != nil {
		t.Fatal(err)
	}
	if soleSubstrate() != warm {
		t.Fatal("untraced request after traced ones did not reuse the session's warm substrate")
	}
}

// TestSessionEvictionPreservesResults: an evicted substrate is rebuilt on
// next use with bit-identical output — eviction is purely a memory decision.
func TestSessionEvictionPreservesResults(t *testing.T) {
	tab := lruTable(t)
	s, err := NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.subLimit = 1
	run := func(req Request) string {
		an, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, in := range an.Insights {
			out += in.String() + "\n"
		}
		return out
	}
	first := run(minOver(1))
	// Evict that substrate by running a different configuration through the
	// size-1 registry, then rebuild it.
	run(minOver(2))
	if again := run(minOver(1)); again != first {
		t.Fatalf("results changed across eviction:\nfirst:\n%s\nagain:\n%s", first, again)
	}
}

func TestSessionClose(t *testing.T) {
	tab := lruTable(t)
	s, err := NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(context.Background(), Request{TopK: 3}); err != nil {
		t.Fatal(err)
	}
	if s.substrateCount() == 0 {
		t.Fatal("analyze cached no substrate")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.substrateCount() != 0 {
		t.Fatal("close retained substrates")
	}
	if _, err := s.Analyze(context.Background(), Request{TopK: 3}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("analyze on closed session: err = %v, want ErrSessionClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestResolveLandsEveryField feeds each Request field and each ExecConfig /
// ResilienceConfig / DurabilityConfig field through resolve and the build
// path, and checks it lands where the run reads it: the miner config, the
// engine, the analyzer or the substrate registry. A field added to one of
// those types without a row here fails the test.
func TestResolveLandsEveryField(t *testing.T) {
	tab := lruTable(t)
	ob := NewObserver(ObserverOptions{})
	progressed := 0
	dir := t.TempDir()
	cases := []struct {
		fields string // the Type.Field names the row covers
		opts   []Option
		req    Request
		landed func(s *Session, a *Analyzer) bool
	}{
		{"Request.Measures", nil, Request{Measures: []Measure{Sum("Cost")}}, func(_ *Session, a *Analyzer) bool {
			return reflect.DeepEqual(a.eng.Measures(), []Measure{Sum("Cost")})
		}},
		{"Request.ImpactMeasure", nil, Request{ImpactMeasure: Sum("Units")}, func(_ *Session, a *Analyzer) bool {
			return a.eng.ImpactMeasure() == Sum("Units")
		}},
		{"Request.TopK", nil, Request{TopK: 2}, func(s *Session, _ *Analyzer) bool {
			an, err := s.Analyze(context.Background(), Request{TopK: 2})
			return err == nil && len(an.Insights) == 2
		}},
		{"Request.MaxFilters", nil, Request{MaxFilters: 2}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.MaxSubspaceFilters == 2
		}},
		{"Request.Budget", nil, Request{Budget: Budget{Time: time.Minute}}, func(_ *Session, a *Analyzer) bool {
			return a.timeBudget == time.Minute && a.cfg.Budget == miner.DefaultConfig().Budget
		}},
		{"Request.Budget", nil, Request{Budget: Budget{Cost: 7}}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.Budget == engine.CostBudget{Meter: a.meter, Limit: 7} && a.timeBudget == 0
		}},
		{"Request.Tau", nil, Request{Tau: 0.6}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.Score.Tau == 0.6
		}},
		{"Request.TopKPruning", nil, Request{TopKPruning: 4}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.TopK == 4
		}},
		{"Request.Progress", nil, Request{Progress: func(*MetaInsight) { progressed++ }}, func(_ *Session, a *Analyzer) bool {
			a.cfg.OnMetaInsight(nil)
			return progressed == 1
		}},
		{"Request.Observer", nil, Request{Observer: ob}, func(_ *Session, a *Analyzer) bool {
			return a.obs == ob && a.cfg.Observer == ob && a.eng.Observer() == ob
		}},
		{"ExecConfig.Workers", []Option{WithExec(ExecConfig{Workers: 3})}, Request{}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.Workers == 3
		}},
		{"ExecConfig.ScanParallelism", []Option{WithExec(ExecConfig{ScanParallelism: 3})}, Request{}, func(s *Session, _ *Analyzer) bool {
			for key := range s.subs {
				return strings.HasPrefix(key, "par=3 ")
			}
			return false
		}},
		{"ResilienceConfig.DegradedThreshold", []Option{WithResilience(ResilienceConfig{DegradedThreshold: 0.25})}, Request{},
			func(_ *Session, a *Analyzer) bool { return a.cfg.DegradedThreshold == 0.25 }},
		{"DurabilityConfig.CheckpointDir DurabilityConfig.Every DurabilityConfig.Resume",
			[]Option{WithDurability(DurabilityConfig{CheckpointDir: dir, Every: 5, Resume: true})}, Request{},
			func(_ *Session, a *Analyzer) bool {
				return a.cfg.Checkpoint != nil && *a.cfg.Checkpoint == miner.CheckpointSpec{Dir: dir, Every: 5, Resume: true}
			}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		s, err := NewSession(tab, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.fields, err)
		}
		a, err := s.analyzer(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.fields, err)
		}
		if !tc.landed(s, a) {
			t.Errorf("%s: the setting did not reach the run", tc.fields)
		}
		for _, f := range strings.Fields(tc.fields) {
			covered[f] = true
		}
	}
	for _, typ := range []any{Request{}, ExecConfig{}, ResilienceConfig{}, DurabilityConfig{}} {
		rt := reflect.TypeOf(typ)
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Name() + "." + rt.Field(i).Name; !covered[f] {
				t.Errorf("%s has no row: say where it lands", f)
			}
		}
	}

	// With no option and an empty request, the run gets the miner's defaults.
	o, err := resolve(nil, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.minerCfg, miner.DefaultConfig()) {
		t.Errorf("empty resolution:\n got  %+v\n want %+v", o.minerCfg, miner.DefaultConfig())
	}
}
