package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// hostSnap is the host-side state read at the edges of a timed region.
type hostSnap struct {
	wall       time.Time
	cpu        time.Duration // user+sys of the whole process
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, runtime estimate
}

var snapMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func takeSnap() hostSnap {
	s := make([]metrics.Sample, len(snapMetrics))
	for i, name := range snapMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return hostSnap{
		wall:       time.Now(),
		cpu:        processCPU(),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

// processCPU is the user+sys CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCost is what one timed region cost the host.
type hostCost struct {
	wallS, cpuS        float64
	allocBytes, allocs float64
	peakHeap           float64
	gcCycles, gcCPUS   float64
}

// peakTracker records the largest live heap the garbage collector measured
// while it is armed. It rides a finalizer that re-arms itself after every
// collection, so it costs nothing between collections and starts no
// goroutine of its own.
type peakTracker struct {
	armed    atomic.Bool
	peak     atomic.Uint64
	minCycle atomic.Uint64
}

// sentinel is collected once per GC cycle. It holds a pointer so the
// runtime does not place it in the tiny allocator, where finalizers may
// never run.
type sentinel struct {
	t   *peakTracker
	pad [2]uint64
}

func (t *peakTracker) arm(startCycles uint64) {
	t.minCycle.Store(startCycles + 1)
	t.peak.Store(0)
	t.armed.Store(true)
	t.plant()
}

func (t *peakTracker) plant() {
	runtime.SetFinalizer(&sentinel{t: t}, func(s *sentinel) {
		if !s.t.armed.Load() {
			return
		}
		s.t.observe()
		s.t.plant()
	})
}

// observe folds the live heap of the latest completed cycle into the peak,
// provided that cycle ran inside the armed region.
func (t *peakTracker) observe() {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Uint64() < t.minCycle.Load() {
		return
	}
	live := s[1].Value.Uint64()
	for {
		old := t.peak.Load()
		if live <= old || t.peak.CompareAndSwap(old, live) {
			return
		}
	}
}

// timeRegion runs f as a timed region. The heap is collected first so every
// region starts from the same state. The caller keeps whatever f built
// reachable (runtime.KeepAlive) until timeRegion returns, so the final
// collection, which closes the peak-heap measurement, still counts it.
func timeRegion(f func()) hostCost {
	runtime.GC()
	var tr peakTracker
	before := takeSnap()
	tr.arm(before.gcCycles)
	f()
	after := takeSnap()
	tr.armed.Store(false)
	runtime.GC()
	tr.minCycle.Store(0)
	tr.observe()
	return hostCost{
		wallS:      after.wall.Sub(before.wall).Seconds(),
		cpuS:       (after.cpu - before.cpu).Seconds(),
		allocBytes: float64(after.allocBytes - before.allocBytes),
		allocs:     float64(after.allocObjs - before.allocObjs),
		peakHeap:   float64(tr.peak.Load()),
		gcCycles:   float64(after.gcCycles - before.gcCycles),
		gcCPUS:     after.gcCPU - before.gcCPU,
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
