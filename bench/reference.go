package main

import (
	"fmt"
	"time"
)

// The sandbox is a few cores of a shared host, and for minutes at a time
// the same binary on the same inputs runs up to a third slower there,
// uniformly over a run. An arithmetic loop in the L1 cache does not
// notice (+-2 %) and a pointer chase through 1 MiB hardly (+-4 %), but
// allocating and filling small objects swings by 30 %, and over twelve
// runs of each of three workloads its time correlated 0.89-0.95 with the
// workload's own median latency. So a run times that piece of work every
// refEvery beside its events and reports its times as they would read on
// a host where the piece takes refNominal. Over twenty interleaved runs
// of wire-small, wire-batch and engine-read while the host changed state
// the quartile spread of the median latency was 12-19 % as measured and
// 4-12 % scaled, and the median of the second ten runs against the first
// ten moved by 9 % and by 1-2 % (wire-small, whose substrate moves three
// times as much as the sample, 9 % either way). While the host stays in
// one state the scaling adds the sample's own noise, a few points of
// spread; it is there for the other case, which breaks a comparison.

// refObjects and refSmallest shape one reference sample: refObjects heap
// objects of refSmallest, refSmallest+1, ... bytes, each filled byte by
// byte. About 50 us on the sizing box when the host is quiet.
const (
	refObjects  = 256
	refSmallest = 64
)

// refNominal is the reference sample's time on the host the reported
// times are stated for: the sizing box in its quiet state.
const refNominal = 50 * time.Microsecond

// refEvery is how often a run samples the reference: 50 times a second
// costs the run 0.3 % of its time.
const refEvery = 20 * time.Millisecond

// reference collects a run's reference samples. One goroutine uses it.
type reference struct {
	samples []float64 // ns
	last    time.Duration
	keep    [refObjects][]byte
	sink    byte
}

// sample does the piece of work once and records how long it took.
func (r *reference) sample() {
	begin := time.Now()
	for i := range r.keep {
		b := make([]byte, refSmallest+i)
		for j := range b {
			b[j] = byte(i + j)
		}
		r.keep[i] = b
	}
	r.samples = append(r.samples, float64(time.Since(begin)))
	r.sink += r.keep[len(r.samples)%refObjects][0]
}

// tick samples when refEvery has passed since the last sample; now is
// the offset into the run.
func (r *reference) tick(now time.Duration) {
	if r != nil && now-r.last >= refEvery {
		r.last = now
		r.sample()
	}
}

// mallocs is how many heap objects the samples allocated, for the run
// to leave out of its own count (samples grows too, a few dozen times).
func (r *reference) mallocs() uint64 { return uint64(len(r.samples)) * refObjects }

// slowdown is how much slower than the nominal host this run's host
// was: the quiet decile of the samples, like every timing of the run,
// over refNominal.
func (r *reference) slowdown() (float64, error) {
	if len(r.samples) < 10 {
		return 0, fmt.Errorf("%d reference samples, need 10", len(r.samples))
	}
	return quiet(append([]float64(nil), r.samples...), "lower") / float64(refNominal), nil
}
