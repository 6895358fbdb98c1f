package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// K0_MS is the median duration of one reference-kernel repetition on a quiet
// box of the class the benchmark was calibrated on (2-vCPU Firecracker
// guest, Xeon 2.1 GHz, GOMAXPROCS 2, go1.24), in the box's fast phase. It
// was measured once, when the benchmark was defined, and is frozen: every
// reported time is wall × K0_MS / kernel-now, so changing it — or the
// routine below — would rescale every number ever reported.
const K0_MS = 15.0

// Kernel sizing, frozen together with K0_MS.
const (
	kernelReps    = 5 // repetitions per pass; the pass value is their median
	kernelRounds  = 2
	kernelInserts = 1 << 17 // per round
	kernelBuckets = 1 << 12
	kernelStream  = 1 << 19 // rows of the streaming group-by
)

// kernelSink keeps the compiler from discarding the kernel's result; it is
// written after the clock has stopped.
var kernelSink atomic.Uint64

// kernelBuf is one goroutine's preallocated input for the streaming part,
// built once so that a pass allocates only what the map-append mix needs.
type kernelBuf struct {
	codes []int32
	vals  []float64
}

var (
	kernelBufs     []kernelBuf
	kernelBufsOnce sync.Once
)

func kernelInit() {
	n := runtime.GOMAXPROCS(0)
	kernelBufs = make([]kernelBuf, n)
	for g := range kernelBufs {
		b := kernelBuf{codes: make([]int32, kernelStream), vals: make([]float64, kernelStream)}
		x := 0x9E3779B97F4A7C15 * uint64(g+1)
		for i := range b.codes {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b.codes[i] = int32(x & (kernelBuckets - 1))
			b.vals[i] = float64(x>>40) / 7
		}
		kernelBufs[g] = b
	}
}

// kernelWork is one goroutine's share of one repetition: a map-append + sort
// mix over xorshift values with a little allocation, then a streaming
// group-by over a buffer larger than the L2 cache. The box's slow phases hit
// memory-bound code (measured: pure ALU loops slow by 3 %, this mix by
// 40 %, like the program's scans), so the kernel has to be memory-bound too.
// It touches no repository code: a change to the program cannot move it.
func kernelWork(g int) uint64 {
	x := 0x9E3779B97F4A7C15*uint64(g+1) | 1
	m := make(map[uint32][]uint32, kernelBuckets)
	var sum uint64
	for r := 0; r < kernelRounds; r++ {
		for i := 0; i < kernelInserts; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := uint32(x) & (kernelBuckets - 1)
			m[k] = append(m[k], uint32(x>>32))
		}
		for k := uint32(0); k < kernelBuckets; k++ {
			v := m[k]
			if len(v) == 0 {
				continue
			}
			slices.Sort(v)
			sum += uint64(v[len(v)/2])
			// Buckets are reused across rounds: allocation stays a small
			// share of the pass, so the kernel rarely triggers a GC cycle
			// whose length would depend on the program's heap.
			m[k] = v[:0]
		}
	}
	b := kernelBufs[g]
	acc := make([]float64, kernelBuckets)
	for i, c := range b.codes {
		acc[c] += b.vals[i]
	}
	return sum + uint64(acc[kernelBuckets/2])
}

// kernelRep runs one repetition on GOMAXPROCS goroutines and returns its
// wall time in milliseconds.
func kernelRep() float64 {
	kernelBufsOnce.Do(kernelInit)
	n := len(kernelBufs)
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = kernelWork(g)
		}()
	}
	wg.Wait()
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	for _, s := range sums {
		kernelSink.Add(s)
	}
	return ms
}

// runKernel runs one kernel pass — kernelReps repetitions — and returns the
// median repetition time in milliseconds. The slow phases flip on a scale of
// tens of milliseconds to seconds; the median of short repetitions reads the
// phase that held for most of the pass instead of blending the two.
func runKernel() float64 {
	reps := make([]float64, kernelReps)
	for i := range reps {
		reps[i] = kernelRep()
	}
	return median(reps)
}
