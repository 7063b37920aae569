package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is the run's noise, not the system's tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and refuses when fewer than minBeyond samples lie beyond it.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// midmean is the mean of the middle half of sorted (the interquartile
// mean), the typical sample. Where the samples have one mode it sits
// beside the median. Where the 50th percentile falls between two modes,
// as on tier-hotset (a near hit takes 0.4 us, a far access 2.3 us, and
// the seed decides which is the bigger half), the median jumps from one
// mode to the other and the midmean moves by the share that changed
// sides. sorted holds at least one sample.
func midmean[T int64 | float64](sorted []T) float64 {
	n := len(sorted)
	var sum float64
	for _, v := range sorted[n/4 : n-n/4] {
		sum += float64(v)
	}
	return sum / float64(n-2*(n/4))
}

// median of an unsorted float slice (mean of the middle two when even);
// the slice is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// quietDecile is where in the order of a run's windows the reported
// timing sits: a tenth of the way in from the best window. The sandbox
// is a few cores of a shared host whose neighbours slow it by up to a
// third for seconds at a time, several times a minute, so the median
// window is a coin toss between two states in a run that is half
// disturbed; the quiet decile is the undisturbed state as long as a tenth
// of the run was, and unlike the single best window it is not an extreme.
const quietDecile = 0.10

// quiet is the value a tenth of the way from the best of v to the worst
// (linear interpolation between neighbours); better says which end is
// best, as in a metricDecl. v is sorted in place.
func quiet(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	pos := quietDecile * float64(len(v)-1)
	if better == "higher" {
		pos = float64(len(v)-1) - pos
	}
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), the rule the PR driver uses for spreads.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces a collection and reports the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// usage brackets a measured section: wall clock, CPU and allocations.
type usage struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

type usageMark struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
}

func markUsage() usageMark {
	// Read the clock last: ReadMemStats stops the world.
	m := usageMark{mallocs: mallocs(), cpu: cpuTime()}
	m.t = time.Now()
	return m
}

func (m usageMark) since() usage {
	// Read the clock first: ReadMemStats stops the world.
	wall := time.Since(m.t)
	return usage{wall: wall, cpu: cpuTime() - m.cpu, mallocs: mallocs() - m.mallocs}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides, reporting 0 for an empty denominator (a layer that saw
// no traffic has no per-op cost).
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
