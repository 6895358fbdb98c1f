package obs

import (
	"sync/atomic"
	"time"
)

// Phase names one stage of an analysis run. Expand and Evaluate accumulate
// concurrently across the miner's workers (their totals are CPU time, not
// elapsed time); Init, Commit and Rank are serial.
type Phase uint8

const (
	// PhaseInit is run setup: queue seeding and accounting simulation state.
	PhaseInit Phase = iota
	// PhaseExpand is subspace-expansion compute units (worker-side).
	PhaseExpand
	// PhaseEvaluate is data-pattern and MetaInsight compute units
	// (worker-side).
	PhaseEvaluate
	// PhaseCommit is the dispatcher's canonical-order commit path.
	PhaseCommit
	// PhaseRank is the redundancy-aware top-k selection.
	PhaseRank
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseInit:     "init",
	PhaseExpand:   "expand",
	PhaseEvaluate: "evaluate",
	PhaseCommit:   "commit",
	PhaseRank:     "rank",
}

// String returns the stable name of the phase.
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return "phase(?)"
}

// Phases accumulates wall-clock time per phase. All updates are atomic, so
// workers can add to Expand/Evaluate concurrently without perturbing the
// run.
type Phases struct {
	nanos [numPhases]atomic.Int64
}

// Add accumulates d into phase p.
func (p *Phases) Add(ph Phase, d time.Duration) {
	if ph < numPhases {
		p.nanos[ph].Add(int64(d))
	}
}

// Seconds returns all non-zero phase totals in seconds, keyed by phase name.
func (p *Phases) Seconds() map[string]float64 {
	out := make(map[string]float64, numPhases)
	for ph := Phase(0); ph < numPhases; ph++ {
		if n := p.nanos[ph].Load(); n > 0 {
			out[ph.String()] = float64(n) / 1e9
		}
	}
	return out
}
