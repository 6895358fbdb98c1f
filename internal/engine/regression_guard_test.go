package engine

import "testing"

// Blessed compressed posting-set footprint of the two generated bench
// tables, in bytes per row summed over every dimension (measured when the
// bitmap postings landed), and how far past it the footprint may grow. A
// count, not a clock: it is a deterministic function of the generated
// tables, so the guard runs in the ordinary test pass and any drift is a
// real container-sizing change. Re-bless from the value -v logs.
const (
	blessedPostingsSmall = 0.13
	blessedPostingsLarge = 1.57
	postingsGuardSlack   = 1.2
)

// TestPostingsMemoryRegressionGuard pins the compressed posting-set
// footprint: bytes per row summed across every dimension's bitmaps must not
// grow past the blessed value by more than 20%, and must stay below the 4
// bytes per row per dimension an uncompressed row-id list would take.
func TestPostingsMemoryRegressionGuard(t *testing.T) {
	for _, tc := range []struct {
		card    string
		blessed float64
	}{{"small", blessedPostingsSmall}, {"large", blessedPostingsLarge}} {
		tab := benchTable(tc.card)
		st := tab.PostingsStats()
		perRow := float64(st.CompressedBytes) / float64(tab.Rows())
		limit := tc.blessed * postingsGuardSlack
		flat := 4.0 * float64(len(tab.Dimensions()))
		t.Logf("table %s: %d B compressed over %d rows -> %.3f B/row (blessed %.2f, limit %.3f, uncompressed %.0f B/row)",
			tc.card, st.CompressedBytes, tab.Rows(), perRow, tc.blessed, limit, flat)
		if perRow > limit {
			t.Errorf("table %s: postings footprint regressed: %.3f B/row exceeds blessed %.2f x %.1f = %.3f",
				tc.card, perRow, tc.blessed, postingsGuardSlack, limit)
		}
		if perRow >= flat {
			t.Errorf("table %s: compressed postings (%.3f B/row) are no smaller than uncompressed row ids (%.0f B/row)",
				tc.card, perRow, flat)
		}
	}
}
