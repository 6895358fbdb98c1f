package miner

import (
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
