package ranker

import (
	"sort"
	"sync"

	"metainsight/internal/core"
)

// Progressive maintains a diversified top-k suggestion while mining is still
// running — the interactive counterpart of the batch ranking: feed every
// discovery to Add (e.g. from the miner's OnMetaInsight callback) and read
// the current suggestion with TopK at any time. It keeps a bounded buffer of
// the highest-scoring candidates (scores bound every candidate's possible
// contribution, so low scorers beyond the buffer cannot enter a greedy
// top-k whose selected gains exceed their score) and re-runs the greedy
// selection lazily on demand. Progressive is safe for concurrent use.
type Progressive struct {
	k       int
	bufferN int

	mu     sync.Mutex
	buffer []*core.MetaInsight // score-descending, at most bufferN
	dirty  bool
	cached []*core.MetaInsight
}

// NewProgressive creates a progressive ranker for top-k suggestions whose
// candidate buffer holds the 32·k best scores.
func NewProgressive(k int) *Progressive {
	if k < 1 {
		k = 1
	}
	return &Progressive{k: k, bufferN: 32 * k}
}

// Add offers one discovered MetaInsight. It is cheap (a binary insertion
// into the bounded buffer) and safe to call from mining workers.
func (p *Progressive) Add(mi *core.MetaInsight) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buffer) == p.bufferN && mi.Score <= p.buffer[len(p.buffer)-1].Score {
		return // cannot displace anything
	}
	i := sort.Search(len(p.buffer), func(i int) bool {
		if p.buffer[i].Score != mi.Score {
			return p.buffer[i].Score < mi.Score
		}
		return p.buffer[i].Key() > mi.Key()
	})
	p.buffer = append(p.buffer, nil)
	copy(p.buffer[i+1:], p.buffer[i:])
	p.buffer[i] = mi
	if len(p.buffer) > p.bufferN {
		p.buffer = p.buffer[:p.bufferN]
	}
	p.dirty = true
}

// TopK returns the current diversified suggestion (the greedy second-order
// selection over the buffer). The result is cached until the next Add; the
// returned slice must not be modified.
func (p *Progressive) TopK() []*core.MetaInsight {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty || p.cached == nil {
		p.cached = Greedy(p.buffer, p.k)
		p.dirty = false
	}
	return p.cached
}
