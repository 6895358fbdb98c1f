package miner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"metainsight/internal/checkpoint"
	"metainsight/internal/obs"
)

// Typed resume errors, surfaced through Result.Err / the public API.
var (
	// ErrCheckpointMismatch reports a resume against a checkpoint directory
	// written under a different mining configuration (table shape, scoring,
	// pattern thresholds, cache bounds or budget kind). Worker count is
	// excluded: it is a proven run invariant, so a run may resume with any
	// Workers value.
	ErrCheckpointMismatch = errors.New("miner: checkpoint was written by a different configuration")
	// ErrReplayDiverged reports that re-executing the journal tail did not
	// reproduce the journaled commits — the determinism premise of resume is
	// broken (e.g. the dataset file changed between runs) and continuing
	// would silently produce wrong results.
	ErrReplayDiverged = errors.New("miner: checkpoint replay diverged from journal")
)

// ckptRunner drives checkpointing for one run: one journal record per
// commit, one snapshot every `every` commits plus one at loop exit.
type ckptRunner struct {
	store *checkpoint.Store
	every int64
}

// initCheckpoint opens (or creates) the checkpoint and, on resume, restores
// the latest snapshot and replays the journal tail by re-executing it.
// Replay runs single-threaded on the dispatcher with observers and
// OnMetaInsight suppressed: the pre-crash run already delivered those events
// and callbacks, so the resumed run's trace continues exactly where the
// killed run's stopped (EvCheckpointResume is the sole extra event). Replay
// also re-primes the physical caches as a side effect — each replayed unit
// re-materializes its data — while the accounting's purity rules guarantee
// the re-executed units are charged exactly as the originals were. The
// returned bool reports that the context was cancelled during replay: the
// caller must skip the mining loop (the final snapshot still lands, so the
// run stays resumable).
func (m *Miner) initCheckpoint(ctx context.Context, cs *CheckpointSpec) (*ckptRunner, bool, error) {
	every := cs.Every
	if every <= 0 {
		every = 256
	}
	fp := m.fingerprint()
	if !cs.Resume {
		st, err := checkpoint.Create(cs.Dir, checkpoint.Meta{Fingerprint: fp, Every: every})
		if err != nil {
			return nil, false, err
		}
		m.pushRoot()
		return &ckptRunner{store: st, every: every}, false, nil
	}

	lr, err := checkpoint.Load(cs.Dir)
	if err != nil {
		return nil, false, err
	}
	ok := false
	defer func() {
		if !ok {
			lr.Store.Close()
		}
	}()
	if lr.Meta.Fingerprint != fp {
		return nil, false, fmt.Errorf("%w: directory %s holds fingerprint %s, this run is %s",
			ErrCheckpointMismatch, cs.Dir, lr.Meta.Fingerprint, fp)
	}
	// The stored cadence wins over cs.Every so the resumed run's snapshot
	// boundaries (and checkpoint-write trace events) line up with the
	// uninterrupted run's.
	ck := &ckptRunner{store: lr.Store, every: lr.Meta.Every}

	var snapIdx int64
	if lr.Snapshot != nil {
		if err := m.restoreSnapshotPayload(lr.Snapshot.Payload); err != nil {
			return nil, false, err
		}
		snapIdx = lr.Snapshot.Index
	} else {
		// Genesis resume: killed before the first snapshot ever landed.
		m.pushRoot()
	}
	m.commitIndex = snapIdx

	o := m.cfg.Observer
	onMI := m.cfg.OnMetaInsight
	m.cfg.Observer = nil
	m.cfg.OnMetaInsight = nil
	m.acct.setObserver(nil)
	cancelled := false
	var rerr error
	for _, rec := range lr.Tail {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		if rerr = m.replayRecord(rec); rerr != nil {
			break
		}
	}
	m.cfg.Observer = o
	m.cfg.OnMetaInsight = onMI
	m.acct.setObserver(o)
	if rerr != nil {
		return nil, false, rerr
	}
	m.stats.ResumedUnits = m.commitIndex
	o.Event(obs.EvCheckpointResume, "",
		fmt.Sprintf("snapshot=%d replayed=%d", snapIdx, m.commitIndex-snapIdx), 0)
	if cancelled {
		m.stats.Cancelled = true
		o.Event(obs.EvCancel, "", "context cancelled; returning best-so-far results", 0)
	}
	ok = true
	return ck, cancelled, nil
}

// replayRecord re-executes one journaled commit and verifies the result
// against the record's post-commit invariants. Replay dispatches nothing, so
// the canonical next unit is the queue's top.
func (m *Miner) replayRecord(rec checkpoint.Record) error {
	var want recordJSON
	if err := json.Unmarshal(rec.Payload, &want); err != nil {
		return fmt.Errorf("%w: journal record %d: %v", checkpoint.ErrCorrupt, rec.Index, err)
	}
	if m.queue.Len() == 0 {
		return fmt.Errorf("%w: record %d wants %s %q but no unit is pending",
			ErrReplayDiverged, rec.Index, want.Kind, want.Unit)
	}
	u := m.queue.pop()
	if u.kind.String() != want.Kind || describeUnit(u) != want.Unit || u.seq != want.Seq {
		return fmt.Errorf("%w: record %d journals %s %q seq=%d; canonical next is %s %q seq=%d",
			ErrReplayDiverged, rec.Index, want.Kind, want.Unit, want.Seq,
			u.kind, describeUnit(u), u.seq)
	}
	var c *completion
	if m.sstarCut(u) {
		// The original run cut this unit on its canonical commit path (the
		// replayed state is exactly that path's state), so replay must not
		// re-execute it: a cut unit ran no queries the first time, and its
		// journal record says so.
		c = &completion{unit: u, cut: true}
	} else {
		c = m.safeProcess(u)
	}
	m.commit(c)
	m.commitIndex++
	if got := m.encodeRecord(c); got != want {
		return fmt.Errorf("%w: record %d (%s %q): replay produced %+v, journal holds %+v",
			ErrReplayDiverged, rec.Index, want.Kind, want.Unit, got, want)
	}
	return nil
}

// onCommit journals one committed unit and, on a snapshot boundary, writes
// a snapshot. Called from the dispatcher immediately after the commit, so
// everything it serializes is the post-commit state.
func (ck *ckptRunner) onCommit(m *Miner, c *completion, spec []*specEntry) error {
	payload, err := json.Marshal(m.encodeRecord(c))
	if err != nil {
		return err
	}
	if err := ck.store.Append(checkpoint.Record{Index: m.commitIndex, Payload: payload}); err != nil {
		return err
	}
	if m.commitIndex%ck.every != 0 {
		return nil
	}
	return ck.snapshot(m, spec)
}

// writeFinalSnapshot persists the state at loop exit (budget stop, drained
// work, or cancellation), so even a "finished" directory can be re-loaded.
func (ck *ckptRunner) writeFinalSnapshot(m *Miner, spec []*specEntry) error {
	return ck.snapshot(m, spec)
}

func (ck *ckptRunner) snapshot(m *Miner, spec []*specEntry) error {
	// Counted before encoding so the snapshot itself carries the write that
	// produced it — that keeps CheckpointWrites cumulative across resumes,
	// matching the uninterrupted run's total.
	m.stats.CheckpointWrites++
	payload, err := m.encodeSnapshotPayload(spec)
	if err != nil {
		return err
	}
	if err := ck.store.WriteSnapshot(m.commitIndex, payload); err != nil {
		return err
	}
	m.cfg.Observer.Event(obs.EvCheckpointWrite, "", fmt.Sprintf("commit=%d", m.commitIndex), 0)
	return nil
}

func (ck *ckptRunner) close() {
	ck.store.Close()
}
