package main

import (
	"math"
	"testing"
	"time"
)

func TestParseSteal(t *testing.T) {
	cases := []struct {
		name  string
		stat  string
		ticks int64
		ok    bool
	}{
		{"full line", "cpu  2428995 0 242430 1837756 19499 0 34073 63713 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n", 63713, true},
		{"steal is the last column", "cpu 1 2 3 4 5 6 7 8\n", 8, true},
		{"no steal column", "cpu 1 2 3 4 5 6 7\n", 0, false},
		{"first line is a single cpu", "cpu0 1 2 3 4 5 6 7 8 9 10\n", 0, false},
		{"not a number", "cpu 1 2 3 4 5 6 7 x 9 10\n", 0, false},
		{"empty", "", 0, false},
	}
	for _, c := range cases {
		ticks, ok := parseSteal([]byte(c.stat))
		if ticks != c.ticks || ok != c.ok {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", c.name, ticks, ok, c.ticks, c.ok)
		}
	}
}

func TestReferenceTimeArithmetic(t *testing.T) {
	// A box running at exactly the calibration speed reports wall time.
	if got := refScale(K0_MS, K0_MS); got != 1 {
		t.Errorf("scale at K0 = %g, want 1", got)
	}
	// Kernel passes of 1.2 × K0 and 1.6 × K0 around a window: the box ran at
	// 1/1.4 of the calibration speed, so 700 ms of wall are 500 reference ms.
	w := window{WallMS: 700, KBeforeMS: 1.2 * K0_MS, KAfterMS: 1.6 * K0_MS}
	if got := w.RefMS(); math.Abs(got-500) > 1e-9 {
		t.Errorf("RefMS = %g, want 500", got)
	}
}

func TestDisturbedThreshold(t *testing.T) {
	// 1 s on 2 CPUs: 2 % is 40 ms, four ticks. Four ticks are within, five
	// are not.
	if disturbed(4, 1, 2) {
		t.Error("4 ticks in 1 s × 2 CPUs marked disturbed")
	}
	if !disturbed(5, 1, 2) {
		t.Error("5 ticks in 1 s × 2 CPUs not marked disturbed")
	}
}

// fakeBox is a scripted machine: a clock that moves only when work runs, a
// kernel of fixed length and a steal counter the test advances.
type fakeBox struct {
	t        time.Time
	steal    int64
	hasSteal bool
	kernelMS float64
}

func (b *fakeBox) probes() probes {
	return probes{
		now: func() time.Time { return b.t },
		cpu: func() time.Duration { return b.t.Sub(time.Unix(0, 0)) },
		steal: func() (int64, bool) {
			return b.steal, b.hasSteal
		},
		kernel: func() float64 {
			b.t = b.t.Add(time.Duration(b.kernelMS * float64(time.Millisecond)))
			return b.kernelMS
		},
	}
}

func (b *fakeBox) work(d time.Duration) { b.t = b.t.Add(d) }

func TestSamplerWindow(t *testing.T) {
	box := &fakeBox{t: time.Unix(0, 0), hasSteal: true, kernelMS: 2 * K0_MS}
	s := newSampler(box.probes())
	s.nproc = 2
	w := s.timed(func() { box.work(300 * time.Millisecond) })
	if w.WallMS != 300 || w.CPUMS != 300 {
		t.Errorf("wall %g cpu %g, want 300 300", w.WallMS, w.CPUMS)
	}
	if got := w.RefMS(); math.Abs(got-150) > 1e-9 {
		t.Errorf("RefMS = %g, want 150 (kernel ran at twice K0)", got)
	}
	if w.Disturbed {
		t.Error("window with no steal marked disturbed")
	}
	// The next window shares the pass that closed this one.
	before := len(s.passes)
	s.timed(func() { box.work(time.Millisecond) })
	if got := len(s.passes) - before; got != 1 {
		t.Errorf("second window ran %d kernel passes, want 1", got)
	}
	// Steal between the passes marks the window.
	w = s.timed(func() { box.work(300 * time.Millisecond); box.steal += 50 })
	if !w.Disturbed || w.StealTicks != 50 {
		t.Errorf("window with 50 steal ticks: disturbed %v ticks %d", w.Disturbed, w.StealTicks)
	}
}

func TestCollectDeadline(t *testing.T) {
	box := &fakeBox{t: time.Unix(0, 0), hasSteal: true, kernelMS: K0_MS}
	s := newSampler(box.probes())
	s.nproc = 2
	// Windows span 100 ms of work plus a kernel pass on each side; the loop
	// stops issuing when the next one would end past the deadline. Every other
	// window is disturbed: it is kept, and only the quiet ones are timed.
	deadline := box.t.Add(time.Second)
	all := s.collect(deadline, func(i int) window {
		return s.timed(func() {
			box.work(100 * time.Millisecond)
			if i%2 == 0 {
				box.steal += 100
			}
		})
	})
	if box.t.After(deadline) {
		t.Errorf("loop ran %v past the deadline", box.t.Sub(deadline))
	}
	if len(all) < 5 {
		t.Errorf("only %d windows fit one second", len(all))
	}
	use, fellBack := quietOf(all, 2)
	if len(use) != len(all)/2 || fellBack {
		t.Errorf("alternating: %d of %d windows usable, fellBack %v; want half, false", len(use), len(all), fellBack)
	}
	// Too few quiet windows: the gate falls back to all of them and says so.
	if use, fellBack = quietOf(all, len(all)); !fellBack || len(use) != len(all) {
		t.Errorf("fallback: fellBack %v with %d windows, want true with %d", fellBack, len(use), len(all))
	}
	// A deadline already passed still yields one window.
	all = s.collect(box.t.Add(-time.Second), func(int) window {
		return s.timed(func() { box.work(time.Millisecond) })
	})
	if len(all) != 1 {
		t.Errorf("expired deadline: %d windows, want 1", len(all))
	}
}

func TestGateOffWithoutStealColumn(t *testing.T) {
	box := &fakeBox{t: time.Unix(0, 0), hasSteal: false, kernelMS: K0_MS}
	s := newSampler(box.probes())
	if s.gateOn {
		t.Fatal("gate on although /proc/stat has no steal column")
	}
	w := s.timed(func() { box.work(100 * time.Millisecond); box.steal += 1000 })
	if w.Disturbed {
		t.Error("gate is off but the window was marked disturbed")
	}
}

func TestQuantileAndTail(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if v[0] != 4 {
		t.Error("quantile reordered its input")
	}
	for n, want := range map[int]int{16: 75, 40: 75, 100: 90, 200: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}
