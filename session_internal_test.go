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

	"metainsight/internal/miner"
)

// sessionTable builds a small in-package fixture (the external houseRecords
// helper lives in metainsight_test and is out of reach here).
func sessionTable(t *testing.T) *Dataset {
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
	tab, err := FromRecords("session", header, records)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSessionClose: Close releases the session's intern table and refuses
// further requests.
func TestSessionClose(t *testing.T) {
	tab := sessionTable(t)
	s, err := NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(context.Background(), Request{TopK: 3}); err != nil {
		t.Fatal(err)
	}
	if s.in.Len() <= 1 {
		t.Fatal("analyze interned no subspace")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.in != nil {
		t.Fatal("close retained the intern table")
	}
	if _, err := s.Analyze(context.Background(), Request{TopK: 3}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("analyze on closed session: err = %v, want ErrSessionClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestResolveLandsEveryField feeds each Request field through resolve and
// the build path, and checks it lands where the run reads it: the miner
// config, the engine or its configuration, or the analyzer. A field added to
// Request without a row here fails the test.
func TestResolveLandsEveryField(t *testing.T) {
	tab := sessionTable(t)
	ob := NewObserver(ObserverOptions{})
	progressed := 0
	cases := []struct {
		fields string // the Type.Field names the row covers
		req    Request
		landed func(s *Session, a *Analyzer) bool
	}{
		{"Request.Measures", Request{Measures: []Measure{Sum("Cost")}}, func(_ *Session, a *Analyzer) bool {
			return reflect.DeepEqual(a.eng.Measures(), []Measure{Sum("Cost")})
		}},
		{"Request.ImpactMeasure", Request{ImpactMeasure: Sum("Units")}, func(_ *Session, a *Analyzer) bool {
			return a.engineConfig().ImpactMeasure == Sum("Units")
		}},
		{"Request.TopK", Request{TopK: 2}, func(s *Session, _ *Analyzer) bool {
			an, err := s.Analyze(context.Background(), Request{TopK: 2})
			return err == nil && len(an.Insights) == 2
		}},
		{"Request.MaxFilters", Request{MaxFilters: 2}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.MaxSubspaceFilters == 2
		}},
		{"Request.Budget", Request{Budget: Budget{Time: time.Minute}}, func(_ *Session, a *Analyzer) bool {
			return a.timeBudget == time.Minute && a.cfg.Budget == miner.DefaultConfig().Budget
		}},
		{"Request.Budget", Request{Budget: Budget{Cost: 7}}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.Budget == (miner.Budget{Cost: 7}) && a.timeBudget == 0
		}},
		{"Request.Tau", Request{Tau: 0.6}, func(_ *Session, a *Analyzer) bool {
			return a.cfg.Tau == 0.6
		}},
		{"Request.Progress", Request{Progress: func(*MetaInsight) { progressed++ }}, func(_ *Session, a *Analyzer) bool {
			a.cfg.OnMetaInsight(nil)
			return progressed == 1
		}},
		{"Request.Observer", Request{Observer: ob}, func(_ *Session, a *Analyzer) bool {
			return a.obs == ob && a.cfg.Observer == ob && a.engineConfig().Observer == ob
		}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		s, err := NewSession(tab)
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
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Name() + "." + rt.Field(i).Name; !covered[f] {
			t.Errorf("%s has no row: say where it lands", f)
		}
	}

	// With no option and an empty request, the run gets the miner's
	// defaults and the fixed execution layout: 8 workers, scans on
	// GOMAXPROCS goroutines.
	o, err := resolve(nil, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.minerCfg, miner.DefaultConfig()) {
		t.Errorf("empty resolution:\n got  %+v\n want %+v", o.minerCfg, miner.DefaultConfig())
	}
	if o.minerCfg.Workers != 8 || o.scanPar != 0 {
		t.Errorf("execution layout: %d workers, scan parallelism %d; want 8 and 0", o.minerCfg.Workers, o.scanPar)
	}
}
