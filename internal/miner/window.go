package miner

import (
	"runtime/metrics"
	"time"

	"metainsight/internal/obs"
)

// specEntry is one entry of the speculation window: a dispatched but
// uncommitted unit. The window is a canonHeap of them, ordered by their
// units, so the entry whose turn is next is the top. Invariant: at most
// Workers entries are in flight — that is the CPU bound, and the bound on
// work thrown away at a budget stop; an entry that has finished only holds its
// completion's memory until its turn comes, so finished entries get their
// own, much deeper bound (Miner.maxFinished). Commit order is the heap's order
// and nothing else: which units are in the window, and when they finished,
// never shows in what is committed.
type specEntry struct {
	unit *workUnit
	comp *completion // nil while the unit is in flight
	// own holds the unit of an admitted MetaInsight candidate (unit points
	// at it); entries are reused once their unit commits.
	own workUnit
}

// defaultMaxFinished bounds the finished-but-uncommitted entries behind a head
// that has not finished. While that head is a scan (milliseconds) the workers
// behind it run cache-served units (microseconds each): a bound the size of
// the in-flight one fills in a fraction of the scan and leaves them idle with
// work queued. A completion is a few hundred bytes to a few kilobytes, so
// this is megabytes at most.
const defaultMaxFinished = 1024

// waitReason says why the dispatcher blocked on a completion instead of
// committing or dispatching; its value names the instrument the blocked time
// is filed under.
type waitReason string

const (
	// waitWorkersBusy: every worker holds a unit — the CPU bound, working as
	// intended.
	waitWorkersBusy waitReason = "miner.dispatch.wait_workers_busy_ns"
	// waitWindowFull: workers are idle and work is queued, but the window
	// holds its fill of finished entries behind an unfinished head.
	waitWindowFull waitReason = "miner.dispatch.wait_window_full_ns"
	// waitQueueEmpty: workers are idle because nothing is dispatchable — the
	// children of the units in flight are only known when those commit.
	waitQueueEmpty waitReason = "miner.dispatch.wait_queue_empty_ns"
)

// The other dispatcher-side instruments. Like the waits they are marked
// timing: they describe how one run was scheduled, not what it computed.
const (
	obsWaitInflight = "miner.dispatch.inflight_at_wait"
	obsWindowPeak   = "miner.dispatch.window_peak"
)

// inflightBounds buckets the units in flight at each blocking wait; bucket 1
// is the case a single slow unit holds every other worker idle.
var inflightBounds = []float64{1, 2, 4, 8, 16, 32}

// recordWait files one blocking wait of d with inflight units outstanding.
func recordWait(o *obs.Observer, why waitReason, inflight int, d time.Duration) {
	o.Count(string(why), int64(d))
	o.Observe(obsWaitInflight, inflightBounds, float64(inflight))
}

// publishDispatch closes the run's dispatch instruments; peak is the deepest
// the window got, in entries.
func publishDispatch(o *obs.Observer, peak int) {
	if o == nil {
		return
	}
	o.SetGauge(obsWindowPeak, float64(peak))
	o.MarkTiming(string(waitWorkersBusy), string(waitWindowFull), string(waitQueueEmpty), obsWaitInflight, obsWindowPeak)
}

// The critical-path instruments, in nanoseconds, all marked timing. The
// dispatcher's busy time is split four ways: startup, choosing and
// dispatching the next unit (a send blocks until a worker takes it), the
// replay of committed usage events (accounting.apply), the rest of a commit,
// and the end of the run (stopping and draining the workers, then finish).
// Busy time plus the wait_* counters is the run's wall time. Worker time is
// CPU time summed across workers, per unit kind, with a MetaInsight unit's
// split into its scope loop (materialize and evaluate) and the rest (building
// and scoring the result). The GC figure is the collector's CPU across the
// whole process while the run lasted, whoever allocated.
const (
	obsBusyDispatch     = "miner.dispatch.busy.dispatch_ns"
	obsBusyReplay       = "miner.dispatch.busy.replay_ns"
	obsBusyCommit       = "miner.dispatch.busy.commit_ns"
	obsBusyFinish       = "miner.dispatch.busy.finish_ns"
	obsWorkerExpand     = "miner.worker.expand_ns"
	obsWorkerPattern    = "miner.worker.datapattern_ns"
	obsWorkerMI         = "miner.worker.metainsight_ns"
	obsWorkerMIEvaluate = "miner.worker.metainsight.evaluate_ns"
	obsWorkerMIAssemble = "miner.worker.metainsight.assemble_ns"
	obsProcessGC        = "miner.process_gc_cpu_ns"
)

// obsWorkerKind names the worker-time counter of each unit kind.
var obsWorkerKind = [...]string{kindExpand: obsWorkerExpand, kindDataPattern: obsWorkerPattern, kindMetaInsight: obsWorkerMI}

// busyClock accumulates the dispatcher's busy time by part. Only the
// dispatcher goroutine touches it, and only when the run is observed. The
// parts tile the run: each lap closes the part that ran since the last one
// (mark), and a blocking wait moves mark past itself, so busy time and the
// waits add up to the wall time with nothing left out or counted twice.
type busyClock struct {
	dispatch, replay, commit, finish time.Duration
	mark                             time.Time
}

// lap files the time since mark under part, and returns now, the new mark.
func (b *busyClock) lap(part *time.Duration) time.Time {
	now := time.Now()
	*part += now.Sub(b.mark)
	b.mark = now
	return now
}

// publish files the run's busy time and marks every critical-path
// instrument timing.
func (b *busyClock) publish(o *obs.Observer) {
	o.Count(obsBusyDispatch, int64(b.dispatch))
	o.Count(obsBusyReplay, int64(b.replay))
	o.Count(obsBusyCommit, int64(b.commit))
	o.Count(obsBusyFinish, int64(b.finish))
	o.MarkTiming(obsBusyDispatch, obsBusyReplay, obsBusyCommit, obsBusyFinish,
		obsWorkerExpand, obsWorkerPattern, obsWorkerMI, obsWorkerMIEvaluate, obsWorkerMIAssemble, obsProcessGC)
}

// workerClock accumulates one worker's time by unit kind, and the part of
// its MetaInsight units' time their scope loops took; the worker files it
// when it exits.
type workerClock struct {
	kind     [3]time.Duration
	evaluate time.Duration
}

func (w *workerClock) publish(o *obs.Observer) {
	for k, d := range w.kind {
		o.Count(obsWorkerKind[k], int64(d))
	}
	o.Count(obsWorkerMIEvaluate, int64(w.evaluate))
	o.Count(obsWorkerMIAssemble, int64(w.kind[kindMetaInsight]-w.evaluate))
}

// gcCPU reads the collector's CPU time so far, process-wide.
func gcCPU() time.Duration {
	s := [1]metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * 1e9)
}
