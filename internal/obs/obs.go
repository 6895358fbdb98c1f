package obs

import "time"

// Options configures an Observer.
type Options struct {
	// TraceCapacity is the run-trace ring size in events; 0 disables event
	// tracing (metrics and phase timers stay on).
	TraceCapacity int
}

// Observer ties the three observability facilities together behind a
// nil-safe facade: every method on a nil *Observer is a no-op, so
// instrumented code paths need no conditionals and pay (close to) nothing
// when observation is off.
type Observer struct {
	registry *Registry
	trace    *Trace
	phases   *Phases
}

// New creates an Observer. Metrics and phase timers are always enabled;
// event tracing is enabled when opts.TraceCapacity > 0.
func New(opts Options) *Observer {
	o := &Observer{registry: NewRegistry(), phases: &Phases{}}
	if opts.TraceCapacity > 0 {
		o.trace = NewTrace(opts.TraceCapacity)
	}
	return o
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// Tracing reports whether event tracing is enabled.
func (o *Observer) Tracing() bool { return o != nil && o.trace != nil }

// Trace returns the event trace, or nil when tracing is disabled.
func (o *Observer) Trace() *Trace {
	if o == nil {
		return nil
	}
	return o.trace
}

// Count adds n to the named counter.
func (o *Observer) Count(name string, n int64) {
	if o == nil || n == 0 {
		return
	}
	o.registry.Counter(name).Add(n)
}

// SetGauge sets the named gauge to v.
func (o *Observer) SetGauge(name string, v float64) {
	if o == nil {
		return
	}
	o.registry.Gauge(name).Set(v)
}

// Observe records v into the named histogram, creating it with bounds on
// first use.
func (o *Observer) Observe(name string, bounds []float64, v float64) {
	if o == nil {
		return
	}
	o.registry.Histogram(name, bounds).Observe(v)
}

// MarkTiming declares the named instruments scheduling-dependent; see
// Registry.MarkTiming.
func (o *Observer) MarkTiming(names ...string) {
	if o == nil {
		return
	}
	o.registry.MarkTiming(names...)
}

// Event records one trace event; a no-op when tracing is disabled.
func (o *Observer) Event(kind EventKind, unit, detail string, cost float64) {
	if o == nil || o.trace == nil {
		return
	}
	o.trace.Record(kind, unit, detail, cost)
}

// Phase accumulates d into phase ph.
func (o *Observer) Phase(ph Phase, d time.Duration) {
	if o == nil {
		return
	}
	o.phases.Add(ph, d)
}

// Snapshot copies the observer's current state: the registry's instruments,
// the phase totals, and (when tracing) trace volume counters
// ("trace.events", "trace.dropped").
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{
			Counters:     map[string]int64{},
			Gauges:       map[string]float64{},
			Histograms:   map[string]HistogramSnapshot{},
			PhaseSeconds: map[string]float64{},
		}
	}
	s := o.registry.Snapshot()
	s.PhaseSeconds = o.phases.Seconds()
	if o.trace != nil {
		s.Counters["trace.events"] = o.trace.seqValue()
		s.Counters["trace.dropped"] = o.trace.Dropped()
	}
	return s
}

// seqValue returns the total number of events ever recorded.
func (t *Trace) seqValue() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
