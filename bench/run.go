package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"attache/internal/core"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// their median, and the last set-up is the one the timed run uses. The
// first set-up of a process also grows the heap, so with five the median
// is one of the four that do not.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the outcome of one run of one workload.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes carry what explains a number but is not one of the declared
	// metrics: sample counts, digests, the first error.
	Notes map[string]any `json:"notes,omitempty"`
}

func newRecord(workload string, seed int64, seconds float64, traced bool) *record {
	return &record{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: true, Metrics: map[string]metric{}, Notes: map[string]any{},
	}
}

// fail marks the run's outputs wrong and keeps the first reason.
func (r *record) fail(format string, args ...any) {
	r.Correct = false
	if _, seen := r.Notes["error"]; !seen {
		r.Notes["error"] = fmt.Sprintf(format, args...)
	}
}

// loadClients is how many goroutines generate load: one, and main pins
// the process to one P, so that client, server and engine take turns on
// a single thread that never sleeps. With two clients on two cores every
// hand-over between goroutines parked a thread and woke another, and
// what that costs on the sandbox depends on how busy the host is: under
// a busy neighbour wire-batch ran faster (p50 430 -> 340 us, CPU per op
// 7.1 -> 5.7 us) and run-to-run quartile spreads reached 35 %.
const loadClients = 1

// servingTail is the percentile event_tail_us reports on the serving
// workloads. A window holds a thousand events or more, so p99 would have
// its ten samples beyond it, but p99 is where a descheduled thread's
// time slice shows: under a neighbour busy a fifth of the time its
// quartile spread over eight runs was 169 %, p98's 76 %, p95's 14 %.
const servingTail = 95

// runServing is the untraced run of a serving workload: every
// end-to-end metric, tracing off.
func runServing(ctx context.Context, w *servingWorkload, seed int64, seconds float64) (*record, error) {
	rec := newRecord(w.name, seed, seconds, false)

	var st *stack
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = setUp(ctx, w, seed, loadClients); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	length := time.Duration(seconds * float64(time.Second))
	runtime.GC()
	before := st.eng.StatsSnapshot().Total
	mark := markUsage()
	ref := &reference{}
	t := drive(ctx, driveConfig{ring: st.ring, targets: st.targets, length: length, ref: ref})
	used := mark.since()
	after := st.eng.StatsSnapshot().Total

	rec.Attempted, rec.Failed = t.attempted, t.failed()
	if t.failed() > 0 {
		rec.fail("%d of %d ops failed (%d wrong bytes): %v", t.failed(), t.attempted, t.wrong, t.firstErr)
	}
	if t.ok == 0 {
		return rec, nil
	}
	rec.Notes["events"] = t.events
	rec.Notes["verified_reads"] = t.reads

	// Every time is stated for the nominal host (reference.go).
	slow, err := ref.slowdown()
	if err != nil {
		return nil, err
	}
	rec.Notes["host_slowdown"] = slow
	rec.set("setup_s", median(setups)/slow)
	rec.set("goodput_ops_s", t.win.quietRate(length)*slow)
	setLatencies(rec, &t.lat, servingTail, slow)
	cpuPerOp, err := t.cpu.quietPerOp(&t.win)
	if err != nil {
		return nil, err
	}
	rec.set("cpu_us_per_op", cpuPerOp/slow)
	rec.set("allocs_per_op", float64(used.mallocs-ref.mallocs())/float64(t.ok))
	// The modeled share of 32-byte sub-rank transfers the timed run avoided
	// against an uncompressed memory (2 per access): the paper's quantity.
	rec.set("bandwidth_savings", statsSince(before, after).BandwidthSavings())
	return rec, nil
}

// setLatencies reports the midmean and the pct-th percentile of event
// latencies, each as the quiet decile of the windows' own on a host slow
// times slower than the nominal one.
func setLatencies(rec *record, lat *windowSamples, pct, slow float64) {
	rec.Notes["latency_samples"] = lat.count()
	rec.Notes["tail_percentile"] = pct
	mid, err := lat.mid()
	if err == nil {
		var tail float64
		if tail, err = lat.percentile(pct); err == nil {
			rec.set("event_mid_us", mid/1e3/slow)
			rec.set("event_tail_us", tail/1e3/slow)
			return
		}
	}
	rec.fail("latency: %v", err)
}

// statsSince is the traffic between two snapshots of one memory: the
// counters subtract, the gauges (lines, accuracy) are after's.
func statsSince(before, after core.StatsSnapshot) core.StatsSnapshot {
	after.Reads -= before.Reads
	after.Writes -= before.Writes
	after.BlocksRead -= before.BlocksRead
	after.BlocksWritten -= before.BlocksWritten
	after.Mispredictions -= before.Mispredictions
	after.RAAccesses -= before.RAAccesses
	return after
}
