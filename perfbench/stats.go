package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median of xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf is the highest percentile with at least ten samples beyond it,
// returned with that percentile. Below 21 samples no percentile above the
// median has ten samples beyond it, so the tail is the median (p50).
func tailOf(xs []float64) (value, pct float64) {
	n := len(xs)
	i := n - 11 // s[i] has exactly ten samples above it
	if i < n/2 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[i], 100 * float64(i+1) / float64(n)
}

// settle collects the garbage earlier work left behind, so each timed
// unit of work starts from a clean heap, as it would in a fresh process.
func settle() { runtime.GC() }

// peakRSSMB is this process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocMB is the heap allocated so far, for per-call allocation deltas.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
