package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the default exclusive method), so
// spreads computed here match the ones the acceptance procedure takes.
// It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the interquartile distance as a share of the median. Around
// a zero median a share means nothing: identical readings spread 0, any
// others are reported as spreading by the whole.
func spreadOf(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	switch {
	case q3 == q1:
		return 0
	case q2 == 0:
		return 1
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// percentile returns the p-quantile (0..1) of an ascending-sorted slice
// by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// fastTwentieth returns the reading that one in twenty of vs beat, and
// never the single best of two or more: the second best of up to 39
// readings, the third best of 40 to 59, and so on.
func fastTwentieth(vs []float64, better string) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	beat := len(s) / 20
	if beat == 0 && len(s) > 1 {
		beat = 1
	}
	if better == higher {
		return s[len(s)-1-beat]
	}
	return s[beat]
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocsNow is the cumulative heap-object allocation count.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces two collections (the second frees what finalizers of
// the first released) and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowth returns how many bytes the live heap grew across fn. What
// fn builds must stay reachable until heapGrowth returns, and so must
// whatever the harness itself held before: the caller keeps both alive.
func heapGrowth(fn func() error) (float64, error) {
	base := liveHeap()
	err := fn()
	if held := liveHeap(); held > base {
		return float64(held - base), err
	}
	return 0, err
}

// passCost is what one timed pass consumed.
type passCost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

// timePass runs fn between wall, CPU and allocation readings. It collects
// first (untimed), so that every pass starts with the collector in the
// same state, as a fresh process would: without it the garbage of the
// previous pass's system decides when this pass's first cycles fall, and
// consecutive passes alternate fast and slow by 5-8 %.
func timePass(fn func() error) (passCost, error) {
	runtime.GC()
	m0, c0, t0 := mallocsNow(), cpuNow(), time.Now()
	err := fn()
	wall := time.Since(t0)
	return passCost{wall: wall, cpu: cpuNow() - c0, mallocs: mallocsNow() - m0}, err
}
