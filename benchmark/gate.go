package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// stealLimit is the share of wall × nproc above which hypervisor steal marks
// a window as disturbed.
const stealLimit = 0.02

// tickMS is the tick length of /proc/stat counters (USER_HZ is 100 on every
// Linux ABI Go supports).
const tickMS = 10.0

// parseSteal extracts the aggregate steal tick count from the contents of
// /proc/stat. ok is false where the first line is not the aggregate cpu line
// or has no steal column (kernels before 2.6.11, non-Linux procfs).
func parseSteal(stat []byte) (ticks int64, ok bool) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func readProcSteal() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	return parseSteal(b)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probes are the sampler's views of the machine, replaceable in tests.
type probes struct {
	now    func() time.Time
	cpu    func() time.Duration
	steal  func() (int64, bool)
	kernel func() float64
}

func realProbes() probes {
	return probes{now: time.Now, cpu: processCPU, steal: readProcSteal, kernel: runKernel}
}

// kernelPass is one timed run of the reference kernel with the steal counter
// read on both sides of it.
type kernelPass struct {
	ms                      float64
	start, end              time.Time
	stealBefore, stealAfter int64
}

// window is one timed stretch of work between two kernel passes.
type window struct {
	WallMS      float64 `json:"wall_ms"`
	CPUMS       float64 `json:"cpu_ms"`
	KBeforeMS   float64 `json:"k_before_ms"`
	KAfterMS    float64 `json:"k_after_ms"`
	StealTicks  int64   `json:"steal_ticks"`
	Disturbed   bool    `json:"disturbed"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Ops         int     `json:"ops"`
	spanSeconds float64 // kernel-before start to kernel-after end
}

// scale is the factor that turns this window's wall time into reference
// time: K0 over the mean of the two kernel passes around it.
func (w window) scale() float64 { return refScale(w.KBeforeMS, w.KAfterMS) }

func refScale(kBefore, kAfter float64) float64 { return K0_MS / ((kBefore + kAfter) / 2) }

// RefMS is the window's wall time in reference milliseconds.
func (w window) RefMS() float64 { return w.WallMS * w.scale() }

// disturbed applies the quiet-window gate: steal above stealLimit of the
// CPU time the box could have given the window.
func disturbed(stealTicks int64, spanSeconds float64, nproc int) bool {
	return float64(stealTicks)*tickMS/1000 > stealLimit*spanSeconds*float64(nproc)
}

// sampler times windows under the sampling protocol: a kernel pass before
// and after each window (consecutive windows share one), reference-time
// normalisation, and the steal gate.
type sampler struct {
	p      probes
	nproc  int
	gateOn bool
	last   *kernelPass
	passes []float64
}

func newSampler(p probes) *sampler {
	_, ok := p.steal()
	return &sampler{p: p, nproc: runtime.NumCPU(), gateOn: ok}
}

func (s *sampler) pass() *kernelPass {
	// The work before the pass may have left a collection half done, whose
	// mark workers would share the cores with the kernel and read as a slow
	// box. Finishing it here keeps it out of both clocks, and every window
	// starts from the same heap state.
	runtime.GC()
	kp := &kernelPass{}
	kp.stealBefore, _ = s.p.steal()
	kp.start = s.p.now()
	kp.ms = s.p.kernel()
	kp.end = s.p.now()
	kp.stealAfter, _ = s.p.steal()
	s.passes = append(s.passes, kp.ms)
	return kp
}

// timed runs fn as one window and returns its measurements. The caller
// fills in Ops, how many operations the window held.
func (s *sampler) timed(fn func()) window {
	if s.last == nil {
		// A fresh process runs its first pass at half speed (measured: 30 ms
		// repetitions, then 14 ms from the second pass on), which would
		// mis-scale the first window. That pass is run and dropped.
		s.p.kernel()
		s.last = s.pass()
	}
	before := s.last
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := s.p.cpu()
	t0 := s.p.now()
	fn()
	wall := s.p.now().Sub(t0)
	cpu := s.p.cpu() - c0
	runtime.ReadMemStats(&m1)
	after := s.pass()
	s.last = after
	w := window{
		WallMS:      float64(wall) / float64(time.Millisecond),
		CPUMS:       float64(cpu) / float64(time.Millisecond),
		KBeforeMS:   before.ms,
		KAfterMS:    after.ms,
		StealTicks:  after.stealAfter - before.stealBefore,
		Allocs:      m1.Mallocs - m0.Mallocs,
		AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
		Ops:         1,
		spanSeconds: after.end.Sub(before.start).Seconds(),
	}
	w.Disturbed = s.gateOn && disturbed(w.StealTicks, w.spanSeconds, s.nproc)
	return w
}

// collect issues windows until another one of the usual length would end
// past the deadline; at least one is issued. A disturbed window is kept — its
// outputs were checked and its counts are exact — but its time is not used:
// the loop makes up for it only as far as the time box allows, and
// harness.disturbed_frac says how many there were.
func (s *sampler) collect(deadline time.Time, issue func(attempt int) window) (all []window) {
	var spent float64
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			usual := time.Duration(spent / float64(attempt) * float64(time.Second))
			if s.p.now().Add(usual).After(deadline) {
				break
			}
		}
		w := issue(attempt)
		all = append(all, w)
		spent += w.spanSeconds
	}
	return all
}

// quietOf returns the windows whose times may be used: the quiet ones, or —
// when the gate left fewer than minQuiet — all of them, with fellBack set so
// the result can say so.
func quietOf(all []window, minQuiet int) (use []window, fellBack bool) {
	for _, w := range all {
		if !w.Disturbed {
			use = append(use, w)
		}
	}
	if len(use) < minQuiet && len(use) < len(all) {
		return all, true
	}
	return use, false
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linear-interpolation quantile of v (which it does not
// modify); 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailPercentile is the highest of the usual percentiles with at least ten
// samples beyond it (the choosing-metrics rule), and the 75th for a sample
// too small even for that.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 75
}
