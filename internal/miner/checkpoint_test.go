package miner

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"metainsight/internal/checkpoint"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// ckRun executes one checkpointed mining pass over the planted table,
// returning the result and the deterministic trace projection. halt > 0
// simulates a hard kill (process death) after that many commits; resume
// continues a previous pass's directory under a cost budget of 400. Every
// call builds a fresh engine, ledger and caches — exactly what a restarted
// process sees.
func ckRun(t *testing.T, workers int, dir string, every, halt int64, resume bool) (*Result, []traceLine) {
	t.Helper()
	return ckRunWith(t, nil, workers, dir, every, halt, resume)
}

// ckRunWith is ckRun with discipline, when set, adjusting the configuration
// (the queue discipline, or the budget) first.
func ckRunWith(t *testing.T, discipline func(*Config), workers int, dir string, every, halt int64, resume bool) (*Result, []traceLine) {
	t.Helper()
	ob := obs.New(obs.Options{TraceCapacity: 1 << 18})
	res := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.Budget = Budget{Cost: 400}
		if discipline != nil {
			discipline(c)
		}
		c.Workers = workers
		c.Observer = ob
		c.Checkpoint = &CheckpointSpec{Dir: dir, Every: every, Resume: resume}
		c.HaltAfterCommits = halt
	})
	evs := ob.Trace().Events()
	lines := make([]traceLine, 0, len(evs))
	for _, ev := range evs {
		lines = append(lines, traceLine{Kind: ev.Kind, Unit: ev.Unit, Detail: ev.Detail, Cost: ev.Cost})
	}
	return res, lines
}

// dropResumeEvents removes the one event a resumed run legitimately adds.
func dropResumeEvents(lines []traceLine) []traceLine {
	out := make([]traceLine, 0, len(lines))
	for _, l := range lines {
		if l.Kind == obs.EvCheckpointResume {
			continue
		}
		out = append(out, l)
	}
	return out
}

// normalizeStats clears the fields a resumed run legitimately reports
// differently from an uninterrupted one (ResumedUnits counts the restored
// prefix; an uninterrupted run never resumed).
func normalizeStats(s Stats) Stats {
	s.ResumedUnits = 0
	return s
}

func commitTotal(s Stats) int64 {
	return s.ExpandUnits + s.DataPatternUnits + s.MetaInsightUnits
}

func miJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.MetaInsights)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointResumeDeterminism is the acceptance test of crash-safe
// mining: a run hard-killed after N commits and resumed from its checkpoint
// produces — at every worker count — the exact results, statistics and trace
// suffix of the run that was never killed.
// Kill points cover the interesting boundaries: the very first commit,
// just-before-snapshot, exactly-at-snapshot, and mid-journal-segment.
func TestCheckpointResumeDeterminism(t *testing.T) {
	const every = int64(16)

	// Reference: one uninterrupted checkpointed run per worker count. The
	// traces must be worker-count-invariant to begin with (the PR-1
	// determinism contract), so collapse them to one reference.
	refDir := t.TempDir()
	refRes, refTrace := ckRun(t, 1, filepath.Join(refDir, "w1"), every, 0, false)
	if refRes.Err != nil {
		t.Fatalf("reference run failed: %v", refRes.Err)
	}
	total := commitTotal(refRes.Stats)
	if total < 2*every+2 {
		t.Fatalf("planted workload too small for the kill grid: %d commits", total)
	}
	for _, w := range []int{2, 4, 8} {
		res, tr := ckRun(t, w, filepath.Join(refDir, fmt.Sprintf("w%d", w)), every, 0, false)
		if miJSON(t, res) != miJSON(t, refRes) {
			t.Fatalf("workers=%d: uninterrupted results differ from workers=1", w)
		}
		if len(tr) != len(refTrace) {
			t.Fatalf("workers=%d: uninterrupted trace length %d != %d", w, len(tr), len(refTrace))
		}
		for i := range tr {
			if tr[i] != refTrace[i] {
				t.Fatalf("workers=%d: uninterrupted trace diverges at %d: %+v vs %+v", w, i, tr[i], refTrace[i])
			}
		}
	}

	kills := []int64{1, every - 1, every, 2 * every, every + every/2}
	// killWorkers/resumeWorkers pairs include cross-worker resumes: a W=8
	// checkpoint must resume bit-identically under W=1 and vice versa.
	pairs := [][2]int{{1, 1}, {8, 8}, {8, 1}, {1, 4}, {4, 8}, {2, 2}}

	for i, kill := range kills {
		kw, rw := pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]
		t.Run(fmt.Sprintf("kill=%d_w%d_resume_w%d", kill, kw, rw), func(t *testing.T) {
			killAndResume(t, nil, refRes, refTrace, every, kill, kw, rw, nil)
		})
	}
}

// TestCheckpointResumePerDiscipline runs the kill/resume acceptance test
// under the queue disciplines other than the default merged priority order:
// FIFO, PatternsFirst, and both. Each kill lands past a snapshot that holds
// pending MetaInsight units, so the restore and the journal replay both
// rebuild a queue in which the disciplines' orders differ.
func TestCheckpointResumePerDiscipline(t *testing.T) {
	const every = int64(16)
	for _, d := range []struct {
		name       string
		kill       int64
		kw, rw     int
		discipline func(*Config)
	}{
		{"fifo", 3*every + every/2, 8, 2, func(c *Config) { c.UsePriorityQueues = false }},
		{"patterns-first", 2*every + every/2, 2, 8, func(c *Config) { c.PatternsFirst = true }},
		{"fifo+patterns-first", 3*every + 3, 4, 1, func(c *Config) {
			c.UsePriorityQueues = false
			c.PatternsFirst = true
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			ref, refTrace := ckRunWith(t, d.discipline, 1, t.TempDir(), every, 0, false)
			if ref.Err != nil {
				t.Fatalf("reference run failed: %v", ref.Err)
			}
			if total := commitTotal(ref.Stats); total <= d.kill+every {
				t.Fatalf("planted workload too small for a kill at %d: %d commits", d.kill, total)
			}
			killAndResume(t, d.discipline, ref, refTrace, every, d.kill, d.kw, d.rw, func(dir string) {
				lr, err := checkpoint.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer lr.Store.Close()
				if lr.Snapshot == nil || len(lr.Tail) == 0 {
					t.Fatalf("kill at %d left no snapshot or no journal tail to replay", d.kill)
				}
				var snap snapshotJSON
				if err := json.Unmarshal(lr.Snapshot.Payload, &snap); err != nil {
					t.Fatal(err)
				}
				pendingMI := 0
				for _, u := range snap.Pending {
					if u.Kind == kindMetaInsight.String() {
						pendingMI++
					}
				}
				if pendingMI == 0 {
					t.Fatalf("snapshot at commit %d holds no pending MetaInsight unit", lr.Snapshot.Index)
				}
			})
		})
	}
}

// killAndResume hard-kills a checkpointed run after kill commits at kw
// workers, hands its directory to afterKill (when set), resumes it at rw
// workers, and asserts the pair reproduces the uninterrupted run ref: the
// killed trace is a prefix of refTrace, and the results, the statistics and
// the concatenated trace equal ref's.
func killAndResume(t *testing.T, discipline func(*Config), ref *Result, refTrace []traceLine, every, kill int64, kw, rw int, afterKill func(dir string)) {
	t.Helper()
	dir := t.TempDir()
	killRes, killTrace := ckRunWith(t, discipline, kw, dir, every, kill, false)
	if got := commitTotal(killRes.Stats); got != kill {
		t.Fatalf("killed run committed %d units, want %d", got, kill)
	}
	// The killed run's trace must be an exact prefix of the
	// uninterrupted run's.
	if len(killTrace) >= len(refTrace) {
		t.Fatalf("killed trace (%d events) not shorter than reference (%d)", len(killTrace), len(refTrace))
	}
	for j := range killTrace {
		if killTrace[j] != refTrace[j] {
			t.Fatalf("killed trace diverges from reference at %d: %+v vs %+v", j, killTrace[j], refTrace[j])
		}
	}
	if afterKill != nil {
		afterKill(dir)
	}

	resRes, resTrace := ckRunWith(t, discipline, rw, dir, every, 0, true)
	if resRes.Err != nil {
		t.Fatalf("resumed run failed: %v", resRes.Err)
	}
	if resRes.Stats.ResumedUnits != kill {
		t.Fatalf("ResumedUnits = %d, want %d", resRes.Stats.ResumedUnits, kill)
	}
	if resRes.Stats.CheckpointWrites != ref.Stats.CheckpointWrites {
		t.Fatalf("CheckpointWrites = %d, want %d (cumulative across the resume)",
			resRes.Stats.CheckpointWrites, ref.Stats.CheckpointWrites)
	}
	if miJSON(t, resRes) != miJSON(t, ref) {
		t.Fatal("resumed results differ from the uninterrupted run")
	}
	if normalizeStats(resRes.Stats) != normalizeStats(ref.Stats) {
		t.Fatalf("resumed stats differ:\n resumed %+v\n reference %+v",
			normalizeStats(resRes.Stats), normalizeStats(ref.Stats))
	}
	// Concatenating the killed run's trace with the resumed run's (minus
	// the resume marker) must reproduce the uninterrupted trace bit for bit.
	concat := append(append([]traceLine(nil), killTrace...), dropResumeEvents(resTrace)...)
	if len(concat) != len(refTrace) {
		t.Fatalf("concatenated trace has %d events, reference %d", len(concat), len(refTrace))
	}
	for j := range concat {
		if concat[j] != refTrace[j] {
			t.Fatalf("concatenated trace diverges at %d: %+v vs %+v", j, concat[j], refTrace[j])
		}
	}
}

// TestCheckpointResumeOfCompletedRun re-opens a directory whose run finished
// normally: replay finds no pending work and the second pass reproduces the
// first run's results without re-mining anything.
func TestCheckpointResumeOfCompletedRun(t *testing.T) {
	dir := t.TempDir()
	first, _ := ckRun(t, 4, dir, 16, 0, false)
	again, _ := ckRun(t, 4, dir, 16, 0, true)
	if miJSON(t, again) != miJSON(t, first) {
		t.Fatal("resume of a completed run changed the results")
	}
	if got := commitTotal(again.Stats); got != commitTotal(first.Stats) {
		t.Fatalf("resume of a completed run re-committed work: %d vs %d", got, commitTotal(first.Stats))
	}
}

// TestCheckpointCorruptJournalRejected flips one byte inside a complete
// journal record and verifies resume fails with the typed corruption error
// rather than silently mining from bad state.
func TestCheckpointCorruptJournalRejected(t *testing.T) {
	dir := t.TempDir()
	ckRun(t, 2, dir, 16, 20, false)
	path := filepath.Join(dir, "journal.ck")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	res, _ := ckRun(t, 2, dir, 16, 0, true)
	if !errors.Is(res.Err, checkpoint.ErrCorrupt) {
		t.Fatalf("resume over a corrupt journal returned %v, want ErrCorrupt", res.Err)
	}
	if len(res.MetaInsights) != 0 {
		t.Fatal("corrupt resume still returned results")
	}
}

// TestCheckpointFingerprintMismatchRejected resumes a checkpoint under a
// configuration that differs from the checkpointed one in one setting —
// another τ, either cache ablation, or another budget kind — and verifies the
// typed mismatch error. The ablations' fingerprints are pinned to the values
// the caches' retired enabled flags rendered ("qcache false 0", "pcache false
// 0"), and the budgets' to the values the retired Budget interface's types
// rendered ("unlimited", "cost:400", "time"), so their checkpoints keep
// matching across versions.
func TestCheckpointFingerprintMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	ckRun(t, 1, dir, 16, 20, false)
	for _, arm := range []struct {
		name   string
		mutate func(*Config)
		want   string // the fingerprint of the arm over the planted table, "" to skip
		same   bool   // the checkpoint's own configuration: not resumed
	}{
		{"tau", func(c *Config) { c.Score.Tau = 0.7 }, "", false},
		{"w/o Query Cache", func(c *Config) { c.EnableQueryCache = false }, "37ae3c2e2c639eba", false},
		{"w/o Pattern Cache", func(c *Config) { c.EnablePatternCache = false }, "9ae0985d19818982", false},
		{"unlimited", func(c *Config) { c.Budget = Budget{} }, "d2c624bdb1ab4fe9", false},
		{"cost 400", func(c *Config) { c.Budget = Budget{Cost: 400} }, "84a4bca2a9a454cd", true},
		{"time", func(c *Config) { c.Budget = Budget{Deadline: time.Now().Add(time.Hour)} }, "69e3bae4733425ef", false},
	} {
		if !arm.same {
			res, _ := ckRunWith(t, arm.mutate, 1, dir, 16, 0, true)
			if !errors.Is(res.Err, ErrCheckpointMismatch) {
				t.Fatalf("%s: resume under a different config returned %v, want ErrCheckpointMismatch", arm.name, res.Err)
			}
		}
		if arm.want == "" {
			continue
		}
		eng, err := engine.New(plantedTable(t), engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		arm.mutate(&cfg)
		if got := New(eng, cfg).fingerprint(); got != arm.want {
			t.Errorf("%s: fingerprint %s, want %s", arm.name, got, arm.want)
		}
	}
}

// TestCheckpointResumeMissingDir verifies the typed no-checkpoint error.
func TestCheckpointResumeMissingDir(t *testing.T) {
	res := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.Checkpoint = &CheckpointSpec{Dir: filepath.Join(t.TempDir(), "nope"), Resume: true}
	})
	if !errors.Is(res.Err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("resume of a missing dir returned %v, want ErrNoCheckpoint", res.Err)
	}
}

// TestCheckpointRefusesOverwrite verifies a fresh checkpointed run refuses a
// directory that already holds one.
func TestCheckpointRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	ckRun(t, 1, dir, 16, 10, false)
	res := runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
		c.Checkpoint = &CheckpointSpec{Dir: dir}
	})
	if !errors.Is(res.Err, checkpoint.ErrExists) {
		t.Fatalf("fresh run over an existing checkpoint returned %v, want ErrExists", res.Err)
	}
}

// panickyPattern registers a custom evaluator that blows up on every scope
// broken down by City — a deterministic panic (every worker count hits it
// identically) that fails only those units, leaving the planted
// Month-breakdown insights minable.
func panickyPattern(c *Config) {
	c.Pattern.Custom = append(c.Pattern.Custom, pattern.CustomEvaluator{
		Name: "Panicky",
		EvaluateScope: func(scope model.DataScope, _ []string, _ []float64) pattern.Evaluation {
			if scope.Breakdown == "City" {
				panic("panicky evaluator: deliberate test panic")
			}
			return pattern.Evaluation{}
		},
	})
}

// TestWorkerPanicIsolation verifies the satellite contract: a panicking
// pattern evaluator fails only its own unit — counted in
// Stats.PanickedUnits and traced as unit-panic — while the run completes
// and stays bit-identical across worker counts.
func TestWorkerPanicIsolation(t *testing.T) {
	run := func(workers int) (*Result, []traceLine) {
		return tracedRun(t, workers, func(c *Config, e *engine.Config) {
			panickyPattern(c)
		})
	}
	res1, tr1 := run(1)
	if res1.Stats.PanickedUnits == 0 {
		t.Fatal("panicking evaluator produced no PanickedUnits")
	}
	if len(res1.MetaInsights) == 0 {
		t.Fatal("a panicking evaluator took down the whole run")
	}
	sawPanic := false
	for _, l := range tr1 {
		if l.Kind == obs.EvUnitPanic {
			sawPanic = true
			if l.Detail == "" {
				t.Fatal("unit-panic event carries no panic value")
			}
		}
	}
	if !sawPanic {
		t.Fatal("no unit-panic trace event recorded")
	}
	res8, tr8 := run(8)
	if res8.Stats != res1.Stats {
		t.Fatalf("stats differ across worker counts under panics:\n w8 %+v\n w1 %+v", res8.Stats, res1.Stats)
	}
	if miJSON(t, res8) != miJSON(t, res1) {
		t.Fatal("results differ across worker counts under panics")
	}
	if len(tr8) != len(tr1) {
		t.Fatalf("trace lengths differ across worker counts: %d vs %d", len(tr8), len(tr1))
	}
	for i := range tr8 {
		if tr8[i] != tr1[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, tr8[i], tr1[i])
		}
	}
}

// TestCheckpointResumeUnderPanics combines the two robustness layers: a run
// with a deterministically panicking evaluator is killed and resumed, and
// the resume replays the panicked commits faithfully.
func TestCheckpointResumeUnderPanics(t *testing.T) {
	run := func(workers int, dir string, halt int64, resume bool) *Result {
		return runMiner(t, plantedTable(t), func(c *Config, e *engine.Config) {
			panickyPattern(c)
			c.Workers = workers
			c.Checkpoint = &CheckpointSpec{Dir: dir, Every: 16, Resume: resume}
			c.HaltAfterCommits = halt
		})
	}
	ref := run(4, filepath.Join(t.TempDir(), "ref"), 0, false)
	if ref.Stats.PanickedUnits == 0 {
		t.Fatal("workload did not exercise panics")
	}
	dir := t.TempDir()
	run(8, dir, 24, false)
	res := run(2, dir, 0, true)
	if miJSON(t, res) != miJSON(t, ref) {
		t.Fatal("resumed results differ under panics")
	}
	if normalizeStats(res.Stats) != normalizeStats(ref.Stats) {
		t.Fatalf("resumed stats differ under panics:\n resumed %+v\n reference %+v",
			normalizeStats(res.Stats), normalizeStats(ref.Stats))
	}
}
