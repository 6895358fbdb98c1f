package metainsight_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"metainsight"
)

func mineJSON(t *testing.T, res *metainsight.MiningResult) string {
	t.Helper()
	b, err := json.Marshal(res.MetaInsights)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// analyzeDurably runs one request on a fresh session with the given
// durability config and worker count.
func analyzeDurably(t *testing.T, ctx context.Context, tab *metainsight.Dataset, dc metainsight.DurabilityConfig, workers int, req metainsight.Request) (*metainsight.Analysis, error) {
	t.Helper()
	s, err := metainsight.NewSession(tab,
		metainsight.WithDurability(dc),
		metainsight.WithExec(metainsight.ExecConfig{Workers: workers}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Analyze(ctx, req)
}

// TestCheckpointResumePublicAPI drives the crash-recovery loop end to end
// through the public options: a checkpointed run is cancelled mid-flight,
// then resumed — at a different worker count — and must finish with exactly
// the results of a run that was never interrupted.
func TestCheckpointResumePublicAPI(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()

	full, err := analyzeDurably(t, bg, tab, metainsight.DurabilityConfig{
		CheckpointDir: filepath.Join(t.TempDir(), "full"), Every: 8,
	}, 4, metainsight.Request{})
	if err != nil {
		t.Fatalf("uninterrupted checkpointed run failed: %v", err)
	}
	fullRes := full.Result
	if len(fullRes.MetaInsights) == 0 {
		t.Fatal("uninterrupted run mined nothing")
	}
	if fullRes.Stats.CheckpointWrites == 0 {
		t.Fatal("checkpointed run reported zero CheckpointWrites")
	}

	// Interrupted run: cancel as soon as mining proves it is underway. The
	// cancellation point is nondeterministic — resume correctness must not
	// depend on where the run stopped.
	dir := filepath.Join(t.TempDir(), "ck")
	ctx, cancel := context.WithCancel(bg)
	interrupted, err := analyzeDurably(t, ctx, tab, metainsight.DurabilityConfig{CheckpointDir: dir, Every: 8}, 4,
		metainsight.Request{Progress: func(*metainsight.MetaInsight) { cancel() }})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted.Result.Stats.Cancelled {
		// The run may have finished before the first discovery's cancel
		// landed; that leaves nothing to resume meaningfully, but resuming
		// must still work (covered below either way).
		t.Log("run completed before cancellation took effect")
	}

	resumed, err := analyzeDurably(t, bg, tab, metainsight.DurabilityConfig{CheckpointDir: dir, Resume: true}, 2,
		metainsight.Request{TopK: 5})
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	resRes := resumed.Result
	if mineJSON(t, resRes) != mineJSON(t, fullRes) {
		t.Fatal("resumed run's MetaInsights differ from the uninterrupted run's")
	}
	a, b := fullRes.Stats, resRes.Stats
	// ResumedUnits only exists on the resumed side; the cancel-time final
	// snapshot is one extra write the uninterrupted run never made.
	a.ResumedUnits, b.ResumedUnits = 0, 0
	a.CheckpointWrites, b.CheckpointWrites = 0, 0
	a.Cancelled, b.Cancelled = false, false
	if a != b {
		t.Fatalf("resumed stats differ from uninterrupted:\n resumed %+v\n full %+v", b, a)
	}
	if len(resumed.Insights) == 0 {
		t.Fatal("ranking the resumed result returned nothing")
	}
}

// TestCheckpointPublicErrors verifies the re-exported typed errors surface
// through the public API.
func TestCheckpointPublicErrors(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	dir := filepath.Join(t.TempDir(), "ck")
	fresh := metainsight.DurabilityConfig{CheckpointDir: dir, Every: 8}

	if _, err := analyzeDurably(t, bg, tab, fresh, 8, metainsight.Request{}); err != nil {
		t.Fatal(err)
	}

	// A fresh checkpointed run must refuse the already-used directory.
	if _, err := analyzeDurably(t, bg, tab, fresh, 8, metainsight.Request{}); !errors.Is(err, metainsight.ErrCheckpointExists) {
		t.Fatalf("fresh run over an existing checkpoint returned %v, want ErrCheckpointExists", err)
	}

	// Resuming under a different configuration must be refused.
	resume := metainsight.DurabilityConfig{CheckpointDir: dir, Resume: true}
	if _, err := analyzeDurably(t, bg, tab, resume, 8, metainsight.Request{Tau: 0.9}); !errors.Is(err, metainsight.ErrCheckpointMismatch) {
		t.Fatalf("resume under a different config returned %v, want ErrCheckpointMismatch", err)
	}

	// Resuming a directory that was never checkpointed.
	missing := metainsight.DurabilityConfig{CheckpointDir: filepath.Join(t.TempDir(), "missing"), Resume: true}
	if _, err := analyzeDurably(t, bg, tab, missing, 8, metainsight.Request{}); !errors.Is(err, metainsight.ErrNoCheckpoint) {
		t.Fatalf("resume of a missing directory returned %v, want ErrNoCheckpoint", err)
	}
}
