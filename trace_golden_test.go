package metainsight_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metainsight"
	"metainsight/internal/workload"
)

var updateTraces = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTables are the Figure-6 tables the golden files pin, each under the
// name its files carry.
var goldenTables = []struct {
	name string
	tab  func() *metainsight.Dataset
}{
	{"sales_forecast", workload.SalesForecast},
	{"tablet_sales", workload.TabletSales},
	{"credit_card", workload.CreditCard},
	{"hotel_booking", workload.HotelBooking},
}

// digest renders a golden file's body: a count line and the SHA-256 of the
// pinned bytes.
func digest(count string, n int, b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s %d\nsha256 %s\n", count, n, hex.EncodeToString(sum[:]))
}

// checkGolden compares got with testdata/name, or writes it there under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateTraces {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file (run with -update to accept it):\n got: %s\nwant: %s",
			name, strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// TestTraceGoldens pins the commit-order trace of the default request
// (Analyze with TopK 10) on each Figure-6 table: its event count and the
// SHA-256 of its JSONL rendering with every wall_ns zeroed. The trace names
// every unit, dedup, prune, store, query and evaluation in the order the
// miner commits them, so a change to how those labels are rendered, or to
// what is committed, moves a digest. Run with -update to rewrite the files
// under testdata/.
func TestTraceGoldens(t *testing.T) {
	for _, tc := range goldenTables {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := metainsight.NewSession(tc.tab())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			ob := metainsight.NewObserver(metainsight.ObserverOptions{TraceCapacity: 1 << 20})
			if _, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10, Observer: ob}); err != nil {
				t.Fatal(err)
			}
			tr := ob.Trace()
			if tr.Dropped() > 0 {
				t.Fatalf("the trace ring dropped %d events", tr.Dropped())
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, ev := range tr.Events() {
				ev.WallNanos = 0
				if err := enc.Encode(ev); err != nil {
					t.Fatal(err)
				}
			}
			checkGolden(t, "trace."+tc.name+".golden", digest("events", tr.Len(), buf.Bytes()))
		})
	}
}

// TestReportGoldens pins the markdown report of the default request
// (Analyze with TopK 10, Analysis.WriteReport) on each Figure-6 table: its
// byte count and SHA-256. The report prints every ranked insight's
// narrative, score, conciseness and impact to three places, its
// commonnesses and exceptions, the sparklines of its raw series and its
// flat-list representation, so a change to scoring or to any of those
// renderings moves a digest. Run with -update to rewrite the files under
// testdata/.
func TestReportGoldens(t *testing.T) {
	for _, tc := range goldenTables {
		t.Run(tc.name, func(t *testing.T) {
			tab := tc.tab()
			sess, err := metainsight.NewSession(tab)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			an, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := an.WriteReport(&buf, tab.Name()); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "report."+tc.name+".golden", digest("bytes", buf.Len(), buf.Bytes()))
		})
	}
}
