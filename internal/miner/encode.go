package miner

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"metainsight/internal/cache"
	"metainsight/internal/core"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// This file serializes miner state for internal/checkpoint. Everything in a
// snapshot is either an int64 (exact in JSON when decoded into an int64
// field), a float64 (Go's shortest-representation encoding round-trips
// float64 exactly), a string, or a struct of those — so a restored run's
// state is bit-identical to the state that was saved, which is what lets the
// resumed suffix reproduce the uninterrupted run's trace byte for byte.
// Cache *contents* are deliberately not persisted: only the simulated-cache
// key/size bookkeeping is. The physical caches re-prime naturally while the
// journal tail re-executes (every replayed unit re-materializes its data),
// and the purity rules of usage.go guarantee the re-executed units record
// the same usage the originals did.

// unitJSON is the wire form of one pending workUnit. Scalar fields carry no
// omitempty: a 0-priority unit must round-trip as 0, not as absent.
type unitJSON struct {
	Kind      string         `json:"kind"`
	Priority  float64        `json:"priority"`
	Seq       int64          `json:"seq"`
	Subspace  model.Subspace `json:"subspace,omitempty"`
	Impact    float64        `json:"impact"`
	MaxDimIdx int            `json:"max_dim_idx"`
	Breakdown string         `json:"breakdown,omitempty"`
	HDS       *core.HDS      `json:"hds,omitempty"`
	PType     int            `json:"ptype"`
	ImpactHDS float64        `json:"impact_hds"`
	MIKey     string         `json:"mi_key,omitempty"`
}

func encodeUnit(u *workUnit) unitJSON {
	j := unitJSON{
		Kind:      u.kind.String(),
		Priority:  u.priority,
		Seq:       u.seq,
		Subspace:  u.subspace,
		Impact:    u.impact,
		MaxDimIdx: u.maxDimIdx,
		Breakdown: u.breakdown,
		PType:     int(u.ptype),
		ImpactHDS: u.impactHDS,
		MIKey:     u.miKey,
	}
	if u.kind == kindMetaInsight {
		hds := u.hds
		j.HDS = &hds
	}
	return j
}

// decodeUnit rebuilds a pending unit from its wire form and re-interns its
// subspaces: the wire carries only model values, handles are process-local.
func (m *Miner) decodeUnit(j unitJSON) (*workUnit, error) {
	var kind unitKind
	switch j.Kind {
	case kindExpand.String():
		kind = kindExpand
	case kindDataPattern.String():
		kind = kindDataPattern
	case kindMetaInsight.String():
		kind = kindMetaInsight
	default:
		return nil, fmt.Errorf("unknown unit kind %q", j.Kind)
	}
	u := &workUnit{
		kind:      kind,
		priority:  j.Priority,
		seq:       j.Seq,
		subspace:  j.Subspace,
		impact:    j.Impact,
		maxDimIdx: j.MaxDimIdx,
		breakdown: j.Breakdown,
		ptype:     pattern.Type(j.PType),
		impactHDS: j.ImpactHDS,
		miKey:     j.MIKey,
	}
	if j.HDS != nil {
		u.hds = *j.HDS
	}
	if err := m.attach(u); err != nil {
		return nil, err
	}
	return u, nil
}

// attach interns the subspaces of a unit described by model values only,
// setting the handles the process functions navigate by.
func (m *Miner) attach(u *workUnit) error {
	tab := m.eng.Table()
	u.handle = m.eng.Intern(u.subspace)
	u.bdim = tab.DimensionIndex(u.breakdown)
	if u.kind == kindDataPattern && u.bdim < 0 {
		return fmt.Errorf("data-pattern unit breaks down unknown dimension %q", u.breakdown)
	}
	if u.kind == kindMetaInsight {
		u.scopes = make([]scopeRef, len(u.hds.Scopes))
		for i, sc := range u.hds.Scopes {
			u.scopes[i] = scopeRef{h: m.eng.Intern(sc.Subspace), bdim: tab.DimensionIndex(sc.Breakdown)}
			if u.scopes[i].bdim < 0 {
				return fmt.Errorf("metainsight unit %q breaks down unknown dimension %q", u.miKey, sc.Breakdown)
			}
		}
	}
	return nil
}

// cacheEntryJSON is one simulated query-cache entry; evalEntryJSON one
// simulated pattern-cache entry. Both lists serialize sorted. Bytes of a
// pattern entry is reserved, always zero: the size the retired byte-bounded
// pattern cache measured, kept so snapshots stay byte-identical.
type cacheEntryJSON struct {
	Subspace  string `json:"s"`
	Breakdown string `json:"b"`
	Bytes     int64  `json:"n"`
}

type evalEntryJSON struct {
	Scope string `json:"s"`
	Bytes int64  `json:"n"`
}

// acctJSON is the accounting's full mutable state, ledger included. Retries,
// BreakerTrips and Breaker are reserved, always zero: state of the retired
// fault simulation, kept so snapshots stay byte-identical across its removal
// and the ones written before it still decode. PrefetchFailures and
// FailedUnits are reserved the same way for the retired scan failure model,
// and Evictions for the retired byte-bounded caches. Executed, Augmented and
// Served repeat the ledger's counts, which the Meter* fields hold under the
// names of the retired engine meter; a restore reads the Meter* fields.
type acctJSON struct {
	Executed         int64   `json:"executed"`
	Augmented        int64   `json:"augmented"`
	Served           int64   `json:"served"`
	QCHits           int64   `json:"qc_hits"`
	QCMisses         int64   `json:"qc_misses"`
	PCHits           int64   `json:"pc_hits"`
	PCMisses         int64   `json:"pc_misses"`
	PrefetchFailures int64   `json:"prefetch_failures"`
	FailedUnits      int64   `json:"failed_units"`
	Retries          int64   `json:"retries"`
	BreakerTrips     int64   `json:"breaker_trips"`
	Evictions        int64   `json:"evictions"`
	Cost             float64 `json:"cost"`

	QC []cacheEntryJSON `json:"qc"`
	PC []evalEntryJSON  `json:"pc"`

	Breaker struct {
		Consecutive int   `json:"consecutive"`
		Open        bool  `json:"open"`
		Trips       int64 `json:"trips"`
	} `json:"breaker"`

	// The ledger, cost in exact nano-units (a charge truncates, so the float
	// total is not restorable bit-exactly — the integer is).
	MeterCostNanos int64 `json:"meter_cost_nanos"`
	MeterExecuted  int64 `json:"meter_executed"`
	MeterServed    int64 `json:"meter_served"`
	MeterAugmented int64 `json:"meter_augmented"`
}

func (a *accounting) exportState() acctJSON {
	st := acctJSON{
		Executed:       a.executed,
		Augmented:      a.augmented,
		Served:         a.served,
		QCHits:         a.qcHits,
		QCMisses:       a.qcMisses,
		PCHits:         a.pcHits,
		PCMisses:       a.pcMisses,
		Cost:           a.cost,
		MeterCostNanos: a.costNanos,
		MeterExecuted:  a.executed,
		MeterServed:    a.served,
		MeterAugmented: a.augmented,
	}
	// Both caches are rendered as their external identities and sorted by
	// them, so the order is the same wherever and whenever it is computed,
	// whatever ordinals the session gave them.
	for id, bytes := range a.qc {
		k := a.eng.UnitKeyOf(id)
		st.QC = append(st.QC, cacheEntryJSON{Subspace: k.Subspace, Breakdown: k.Breakdown, Bytes: bytes})
	}
	sort.Slice(st.QC, func(i, j int) bool {
		if st.QC[i].Subspace != st.QC[j].Subspace {
			return st.QC[i].Subspace < st.QC[j].Subspace
		}
		return st.QC[i].Breakdown < st.QC[j].Breakdown
	})
	scopes := make([]string, 0, len(a.pc))
	for id := range a.pc {
		scopes = append(scopes, a.eng.ScopeKeyOf(id).String())
	}
	sort.Strings(scopes)
	for _, s := range scopes {
		st.PC = append(st.PC, evalEntryJSON{Scope: s})
	}
	return st
}

// restoreState overwrites the (empty) accounting with checkpointed state,
// its ledger included. The snapshot names units and scopes by their
// canonical strings; they are parsed and re-interned into the ids the
// replay looks up.
func (a *accounting) restoreState(st acctJSON) error {
	a.pc = make(map[cache.ScopeID]struct{}, len(st.PC))
	for _, e := range st.PC {
		k, ok := cache.ParseScopeKey(e.Scope)
		var id cache.ScopeID
		if ok {
			id, ok = a.eng.ScopeIDOf(k)
		}
		if !ok {
			return fmt.Errorf("snapshot payload: pattern-cache entry %q is not a data scope of this table", e.Scope)
		}
		a.pc[id] = struct{}{}
	}

	a.qcHits = st.QCHits
	a.qcMisses = st.QCMisses
	a.pcHits = st.PCHits
	a.pcMisses = st.PCMisses
	a.cost = st.Cost
	a.costNanos = st.MeterCostNanos
	a.executed = st.MeterExecuted
	a.served = st.MeterServed
	a.augmented = st.MeterAugmented

	a.qc = make(map[cache.UnitID]int64, len(st.QC))
	a.qcBytes = 0
	for _, e := range st.QC {
		id, ok := a.eng.UnitIDOf(cache.UnitKey{Subspace: e.Subspace, Breakdown: e.Breakdown})
		if !ok {
			return fmt.Errorf("snapshot payload: query-cache entry %q|%q is not a unit of this table", e.Subspace, e.Breakdown)
		}
		a.store(id, e.Bytes)
	}
	return nil
}

// setObserver swaps the accounting's observer (nil silences it); the resume
// replay uses it to suppress re-emission of events the pre-crash run already
// recorded.
func (a *accounting) setObserver(o *obs.Observer) {
	a.obs = o
	a.traced = o.Tracing()
}

// snapshotJSON is the miner-side snapshot payload.
type snapshotJSON struct {
	Seq     int64               `json:"seq"`
	Stats   Stats               `json:"stats"`
	Pending []unitJSON          `json:"pending"`
	SeenMI  []string            `json:"seen_mi"`
	Results []*core.MetaInsight `json:"results"`
	Acct    acctJSON            `json:"acct"`
}

// recordJSON is one journal record: the committed unit's identity plus
// post-commit invariants the replay verifies (any mismatch means the resume
// is not reproducing the original run and must abort with
// ErrReplayDiverged rather than continue silently wrong).
type recordJSON struct {
	Kind      string `json:"kind"`
	Unit      string `json:"unit"`
	Seq       int64  `json:"seq"`
	Produced  int    `json:"produced"`
	Panicked  bool   `json:"panicked,omitempty"`
	Cut       bool   `json:"cut,omitempty"`
	CostNanos int64  `json:"cost_nanos"`
	Results   int    `json:"results"`
	// FailedUnits and Evictions are reserved, always zero: the retired scan
	// failure model's and byte-bounded caches' counts, kept so journals stay
	// byte-identical.
	FailedUnits int64 `json:"failed_units"`
	Evictions   int64 `json:"evictions"`
	// BoundSkips/BoundScanSkips carry the cumulative bound-pruning counters,
	// so a resume replay also verifies the restored run makes the exact cut
	// decisions the original made.
	BoundSkips     int64 `json:"bound_skips"`
	BoundScanSkips int64 `json:"bound_scan_skips"`
}

// encodeSnapshotPayload captures the complete dispatcher-owned state:
// sequence counter, stats, every pending unit (in the queue, or dispatched
// but uncommitted in the speculation window spec — the pending *set* after N
// canonical commits is worker-count-invariant even though its split between
// the two is not), dedup set, results, and the accounting. Pending units sort
// by seq, which is unique among live units, so the bytes do not depend on
// either heap's layout.
func (m *Miner) encodeSnapshotPayload(spec []*specEntry) ([]byte, error) {
	pending := append([]*workUnit(nil), m.queue.items...)
	for _, e := range spec {
		pending = append(pending, e.unit)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })

	snap := snapshotJSON{
		Seq:     m.seq,
		Stats:   m.stats,
		Pending: make([]unitJSON, len(pending)),
		Acct:    m.acct.exportState(),
	}
	for i, u := range pending {
		snap.Pending[i] = encodeUnit(u)
	}
	snap.SeenMI = make([]string, 0, len(m.seenMI))
	for k := range m.seenMI {
		snap.SeenMI = append(snap.SeenMI, k)
	}
	sort.Strings(snap.SeenMI)
	snap.Results = make([]*core.MetaInsight, 0, len(m.results))
	for _, mi := range m.results {
		snap.Results = append(snap.Results, mi)
	}
	sort.Slice(snap.Results, func(i, j int) bool { return snap.Results[i].Key() < snap.Results[j].Key() })
	return json.Marshal(snap)
}

// restoreSnapshotPayload rebuilds dispatcher state from a snapshot. Pending
// units go back into the one queue in seq order. Cancelled is cleared: the
// restored run is live again.
func (m *Miner) restoreSnapshotPayload(payload []byte) error {
	var snap snapshotJSON
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("snapshot payload: %w", err)
	}
	m.seq = snap.Seq
	m.stats = snap.Stats
	m.stats.Cancelled = false
	for _, k := range snap.SeenMI {
		m.seenMI[k] = true
	}
	for _, mi := range snap.Results {
		// Rebuilt through NewHDP so the decoded result carries its memoized
		// key like a freshly mined one.
		mi.HDP = core.NewHDP("", mi.HDP.HDS, mi.HDP.Type, mi.HDP.Patterns)
		m.results[mi.Key()] = mi
	}
	// topScores is derived state (the top-K committed scores), so it is
	// rebuilt rather than serialized.
	m.rebuildTopScores()
	for _, j := range snap.Pending {
		u, err := m.decodeUnit(j)
		if err != nil {
			return err
		}
		m.queue.push(u)
	}
	return m.acct.restoreState(snap.Acct)
}

// encodeRecord captures the post-commit invariants of one committed unit.
func (m *Miner) encodeRecord(c *completion) recordJSON {
	return recordJSON{
		Kind:           c.unit.kind.String(),
		Unit:           describeUnit(c.unit),
		Seq:            c.unit.seq,
		Produced:       len(c.produced),
		Panicked:       c.panicked,
		Cut:            c.cut,
		CostNanos:      m.acct.costNanos,
		Results:        len(m.results),
		BoundSkips:     m.stats.BoundSkips,
		BoundScanSkips: m.stats.BoundScanSkips,
	}
}

// fingerprint hashes everything that shapes the canonical commit stream:
// the table's shape, the measure set, every scoring/pattern/miner knob, the
// cache configuration and the budget kind. Workers is deliberately excluded
// — worker count is a proven run invariant, so a run checkpointed at W=8 may
// resume at W=1 and still match bit for bit. Custom
// pattern evaluators contribute their names only (function values have no
// stable cross-process identity); registering a *different* evaluator under
// the same name defeats the check, which the API docs call out.
func (m *Miner) fingerprint() string {
	h := fnv.New64a()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	w("ckpt-v1")
	tab := m.eng.Table()
	w("table", tab.Name(), strconv.Itoa(tab.Rows()))
	for _, d := range tab.Dimensions() {
		w("dim", d.Name, strconv.Itoa(d.Cardinality()), strconv.Itoa(int(d.Kind)))
	}
	for _, ms := range m.eng.Measures() {
		w("measure", ms.Key())
	}
	w("impact", m.eng.ImpactMeasure().Key())
	w("score", fmt.Sprintf("%+v", m.cfg.Score))
	w("pattern", pattern.Thresholds())
	for _, c := range m.cfg.Pattern.Custom {
		w("custom", c.Name, strconv.FormatBool(c.TemporalOnly))
	}
	// The 0.1 is the retired degraded-result threshold, as its default
	// rendered: kept so checkpoints written before its removal still match.
	w("miner", fmt.Sprintf("%d %d %g %g %t %t %t %t 0.1 %t %d",
		m.cfg.MaxSubspaceFilters, m.cfg.MaxBreakdownCardinality, m.cfg.MinImpact,
		m.cfg.MinSubspaceImpact, m.cfg.UsePriorityQueues, m.cfg.EnablePruning1,
		m.cfg.EnablePruning2, m.cfg.EnableBoundPruning,
		m.cfg.PatternsFirst, m.cfg.TopK))
	// The trailing 0 is the retired byte bound, as unbounded caches rendered
	// it: kept so checkpoints written before its removal still match.
	w("qcache", fmt.Sprintf("%t 0", m.cfg.EnableQueryCache))
	w("pcache", fmt.Sprintf("%t 0", m.cfg.EnablePatternCache))
	// The retired fault simulation's zero policies, as it rendered them: kept
	// so checkpoints written before its removal still match.
	w("faults", "{Seed:0 TransientRate:0 PermanentRate:0 LatencyRate:0 LatencyUnits:0}",
		"{MaxAttempts:0 BaseBackoff:0 BackoffFactor:0 MaxBackoff:0 JitterFrac:0 DeadlineUnits:0 BreakerThreshold:0}")
	switch b := m.cfg.Budget; {
	case b.Cost > 0:
		w("budget", fmt.Sprintf("cost:%g", b.Cost))
	case !b.Deadline.IsZero():
		// Deadlines re-anchor on resume (documented); only the budget kind
		// is part of the run's identity.
		w("budget", "time")
	default:
		w("budget", "unlimited")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
