package miner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture under testdata/ckpt_parent was written by the commit before
// the fault simulation was retired, with ckRun's fault policy taken out — the
// fault-free run that commit and this one both have (planted table, cost
// budget 400, snapshot cadence 16):
// killed/ is a W=8 run hard-stopped after 40 commits — a snapshot at commit
// 32 plus eight journal records — and uninterrupted_snapshot.ck is the final
// snapshot of the W=1 run that was never stopped. Together they pin the wire
// format in both directions: old bytes must decode, re-intern and resume,
// and the bytes written today must equal the bytes written then.
const ckptFixture = "testdata/ckpt_parent"

func TestCheckpointWireFormatUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(ckptFixture, "uninterrupted_snapshot.ck"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		res, _ := ckRun(t, workers, dir, 16, 0, false)
		got, err := os.ReadFile(filepath.Join(dir, "snapshot.ck"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: final snapshot (%d bytes) differs from the one the parent commit wrote (%d bytes)",
				workers, len(got), len(want))
		}
		// The stats encoding keeps its seven reserved names, always zero, and
		// round-trips.
		raw, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		for _, reserved := range []string{`"prefetch_failures":0,`, `"failed_units":0,`, `"retries":0,`, `"breaker_trips":0,`, `"speculative_reissues":0,`, `"shard_retries":0,`, `"evictions":0,`} {
			if !strings.Contains(string(raw), reserved) {
				t.Errorf("workers=%d: stats JSON lacks reserved %s: %s", workers, reserved, raw)
			}
		}
		var back Stats
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != res.Stats {
			t.Errorf("workers=%d: stats do not round-trip:\n wrote %+v\n read  %+v", workers, res.Stats, back)
		}
	}
}

func TestResumeFromParentCommitCheckpoint(t *testing.T) {
	ref, refTrace := ckRun(t, 1, t.TempDir(), 16, 0, false)
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		for _, name := range []string{"snapshot.ck", "journal.ck"} {
			b, err := os.ReadFile(filepath.Join(ckptFixture, "killed", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		res, tr := ckRun(t, workers, dir, 16, 0, true)
		if res.Err != nil && ref.Err == nil {
			t.Fatalf("workers=%d: resume failed: %v", workers, res.Err)
		}
		if res.Stats.ResumedUnits != 40 {
			t.Errorf("workers=%d: resumed from commit %d, fixture was stopped at 40", workers, res.Stats.ResumedUnits)
		}
		if miJSON(t, res) != miJSON(t, ref) {
			t.Errorf("workers=%d: results differ from the uninterrupted run", workers)
		}
		if normalizeStats(res.Stats) != normalizeStats(ref.Stats) {
			t.Errorf("workers=%d: stats differ:\n resumed       %+v\n uninterrupted %+v", workers, res.Stats, ref.Stats)
		}
		// The resumed trace is the uninterrupted trace's suffix.
		tr = dropResumeEvents(tr)
		if len(tr) == 0 || len(tr) >= len(refTrace) {
			t.Fatalf("workers=%d: resumed trace has %d events, uninterrupted %d", workers, len(tr), len(refTrace))
		}
		suffix := refTrace[len(refTrace)-len(tr):]
		for i := range tr {
			if tr[i] != suffix[i] {
				t.Fatalf("workers=%d: resumed trace diverges from the uninterrupted suffix at %d: %+v vs %+v",
					workers, i, tr[i], suffix[i])
			}
		}
	}
}
