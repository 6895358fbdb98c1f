// Package obs is the zero-dependency observability layer of the MetaInsight
// serving system: a metrics registry (atomic counters, gauges and bucketed
// histograms with a stable-ordered JSON/text snapshot), a ring-buffered
// structured run trace, and per-phase wall-clock timers, tied together by a
// nil-safe Observer facade.
//
// The layer is designed to be provably inert with respect to the miner's
// bit-identical determinism guarantee (see internal/miner): every recording
// primitive is either an atomic update (counters, gauges, histograms, phase
// timers — safe to call from any goroutine) or happens on the miner
// dispatcher's serial commit path (trace events), so mined results, executed
// query counts and metered cost are identical with observation on or off, at
// any worker count. Wall-clock fields (event timestamps, phase durations) are
// naturally run-dependent; every other recorded quantity is deterministic.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= Bounds[i] (and v > Bounds[i-1]); one implicit
// overflow bucket counts v > Bounds[len-1].
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    Gauge
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final entry
	// for observations above the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Registry is a names-to-instruments registry. Instruments are created on
// first use and live for the registry's lifetime; all updates are atomic and
// safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	timing     map[string]bool // see MarkTiming
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// MarkTiming declares the named instruments scheduling-dependent: how long
// something waited, how many goroutines happened to overlap. Like the phase
// timers their values differ from run to run over the same data, so a
// snapshot lists them (Snapshot.Timing) for anything that compares two runs
// to leave out.
func (r *Registry) MarkTiming(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timing == nil {
		r.timing = make(map[string]bool, len(names))
	}
	for _, n := range names {
		r.timing[n] = true
	}
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending) on first use; bounds of later calls are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	r.histograms[name] = h
	return h
}

// Snapshot is a point-in-time copy of a registry (plus, when taken through an
// Observer, its phase timers and trace totals). Map-valued fields marshal
// with sorted keys (encoding/json sorts map keys), so the JSON encoding of a
// snapshot is stable across runs and Go versions; Text renders the same
// stable order.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// PhaseSeconds holds the per-phase wall-clock totals (init / expand /
	// evaluate / commit / rank), in seconds. Empty when no phases were timed.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	// Timing names, sorted, the instruments above whose values depend on
	// scheduling rather than on the data (Registry.MarkTiming); everything
	// not listed here or under PhaseSeconds repeats exactly at one worker.
	Timing []string `json:"timing,omitempty"`
}

// Deterministic returns the snapshot without its run-dependent parts: the
// instruments listed in Timing and the phase timers.
func (s Snapshot) Deterministic() Snapshot {
	timing := make(map[string]bool, len(s.Timing))
	for _, n := range s.Timing {
		timing[n] = true
	}
	return Snapshot{
		Counters:     without(s.Counters, timing),
		Gauges:       without(s.Gauges, timing),
		Histograms:   without(s.Histograms, timing),
		PhaseSeconds: map[string]float64{},
	}
}

// without copies m, leaving out the keys in drop.
func without[V any](m map[string]V, drop map[string]bool) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		if !drop[k] {
			out[k] = v
		}
	}
	return out
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:     map[string]int64{},
		Gauges:       map[string]float64{},
		Histograms:   map[string]HistogramSnapshot{},
		PhaseSeconds: map[string]float64{},
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.sum.Value(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	s.Timing = keys(r.timing)
	sort.Strings(s.Timing)
	return s
}

// Text renders the snapshot as an aligned, name-sorted plain-text listing —
// the -metrics output of cmd/metainsight.
func (s Snapshot) Text() string {
	var b strings.Builder
	section := func(title string, names []string, write func(name string)) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s:\n", title)
		for _, n := range names {
			write(n)
		}
	}
	section("counters", keys(s.Counters), func(n string) {
		fmt.Fprintf(&b, "  %-42s %d\n", n, s.Counters[n])
	})
	section("gauges", keys(s.Gauges), func(n string) {
		fmt.Fprintf(&b, "  %-42s %.3f\n", n, s.Gauges[n])
	})
	section("histograms", keys(s.Histograms), func(n string) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "  %-42s count=%d sum=%.3f\n", n, h.Count, h.Sum)
		for i, bound := range h.Bounds {
			if h.Counts[i] == 0 {
				continue
			}
			fmt.Fprintf(&b, "    le=%-8.3g %d\n", bound, h.Counts[i])
		}
		if over := h.Counts[len(h.Counts)-1]; over > 0 {
			fmt.Fprintf(&b, "    le=+Inf    %d\n", over)
		}
	})
	section("phases", keys(s.PhaseSeconds), func(n string) {
		fmt.Fprintf(&b, "  %-42s %.6fs\n", n, s.PhaseSeconds[n])
	})
	section("timing (scheduling-dependent, like the phases)", append([]string(nil), s.Timing...), func(n string) {
		fmt.Fprintf(&b, "  %s\n", n)
	})
	return b.String()
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
