package miner

import (
	"runtime"
	"sync"

	"metainsight/internal/core"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
	"metainsight/internal/ranker"
)

// Result is the outcome of a mining run: all qualified MetaInsight
// candidates (deduplicated by identity key, sorted by score descending with
// ties in key order) and run statistics. Candidates feed the ranking stage
// (Section 4.3).
//
// A run keeps its candidates as rows and builds a MetaInsight only when a
// caller reads one: Top builds the ranked k, All every candidate. Building
// reads the session's memos and changes nothing a run reports.
type Result struct {
	// MetaInsights holds every candidate once All has run, in result order;
	// nil before.
	MetaInsights []*core.MetaInsight
	Stats        Stats
	// Err is never set by the miner. It exists for the root package's
	// MiningResult, which reports in it an analyzer whose engine failed to
	// rebuild for a repeated mine.
	Err error

	rows []row  // the candidates, in result order
	m    *Miner // builds them
	all  sync.Once
}

// Len returns the number of candidates.
func (r *Result) Len() int { return len(r.rows) }

// All returns every candidate, in result order, building the MetaInsights
// on the first call and keeping them in MetaInsights. It is safe for
// concurrent use.
func (r *Result) All() []*core.MetaInsight {
	r.all.Do(func() {
		mis := make([]*core.MetaInsight, len(r.rows))
		for i := range r.rows {
			mis[i] = r.m.build(&r.rows[i])
		}
		r.MetaInsights = mis
	})
	return r.MetaInsights
}

// Keys returns the identity keys of the mined MetaInsights, the set the
// precision metric of Definition 5.1 intersects.
func (r *Result) Keys() map[string]bool {
	keys := make(map[string]bool, len(r.rows))
	for _, rw := range r.rows {
		keys[r.m.candLabel(rw.key)] = true
	}
	return keys
}

// Top returns the redundancy-aware top k of the candidates — the paper's
// greedy second-order selection, ranker.GreedyStats — and the selection's
// work. Only the selected candidates are built.
func (r *Result) Top(k int) ([]*core.MetaInsight, ranker.SelectionStats) {
	p := rankPools.get()
	defer rankPools.put(p)
	var root []uint64
	for _, rw := range r.rows {
		root = r.m.eng.HandleOf(rw.key.scope.Unit()).AppendFilterIDs(root[:0])
		p.Append(ranker.Item{
			Score:     rw.score,
			Kind:      model.ExtensionKind(rw.key.kind),
			Type:      pattern.Type(rw.key.ptype),
			ExtDim:    int32(rw.key.ext),
			Measure:   rw.measure,
			Breakdown: int32(rw.anchor.Breakdown()),
		}, root...)
	}
	idx, st := p.Greedy(k)
	top := make([]*core.MetaInsight, len(idx))
	for i, j := range idx {
		top[i] = r.m.build(&r.rows[j])
	}
	return top, st
}

// rankPools keeps the ranking pools Top fills from a result's rows for the
// next requests: a stack under a lock, at most one pool per core, rather
// than a sync.Pool, which hides a pool put back on one core from a request
// that moved to another, and would have it build its pool anew.
var rankPools poolStack

type poolStack struct {
	mu   sync.Mutex
	free []*ranker.Pool
}

func (s *poolStack) get() *ranker.Pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		p.Reset()
		return p
	}
	return new(ranker.Pool)
}

func (s *poolStack) put(p *ranker.Pool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) < runtime.GOMAXPROCS(0) {
		s.free = append(s.free, p)
	}
}
