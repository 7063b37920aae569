package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"attache/internal/loadgen"
)

// windows is how many equal slices the timed run is cut into. Every
// timing is computed per window and the run reports its quiet decile
// (quiet, stats.go), so a stall or a busy neighbour spoils the windows it
// falls in and not the figure.
const windows = 40

// driveConfig is one pass of load: the ring replayed cyclically over
// one target per client goroutine, closed loop (a client sends its next
// event when the previous one has returned).
type driveConfig struct {
	ring    *ring
	targets []loadgen.Target
	// length is how long clients keep issuing; events in flight when it
	// ends complete and count. maxEvents, when > 0, ends the pass after
	// that many events instead (warm-up, tests, ladder rungs).
	length    time.Duration
	maxEvents int
	// ref, when set, is sampled by client 0 between its events.
	ref *reference
}

// tally is what the clients of one pass observed, merged.
type tally struct {
	events    uint64
	attempted uint64        // ops
	ok        uint64        // ops that succeeded and, for reads, returned legal bytes
	wrong     uint64        // ok-looking reads whose bytes no write put there
	reads     uint64        // reads checked against the model
	lat       windowSamples // per-event latency, ns
	win       windowOps
	cpu       windowCPU
	firstErr  error
}

// windowSamples holds timing samples by the window they ended in.
type windowSamples [windows][]int64

// add files a sample that ended at offset end into a pass of the given
// length; what ends after the pass joins the last window.
func (s *windowSamples) add(end, length time.Duration, v int64) {
	w := 0
	if length > 0 {
		w = min(int(end*windows/length), windows-1)
	}
	s[w] = append(s[w], v)
}

func (s *windowSamples) count() int {
	n := 0
	for _, w := range s {
		n += len(w)
	}
	return n
}

// quietOf is the quiet decile over windows of stat, which is computed on
// each window's sorted samples. When a window is too thin for it (short
// runs, passes that end after a count of events) the whole pass is taken
// as one window.
func (s *windowSamples) quietOf(stat func(sorted []int64) (float64, error)) (float64, error) {
	per := make([]float64, 0, windows)
	for _, w := range s {
		slices.Sort(w)
		v, err := stat(w)
		if err != nil {
			per = nil
			break
		}
		per = append(per, v)
	}
	if per != nil {
		return quiet(per, "lower"), nil
	}
	all := slices.Concat(s[:]...)
	slices.Sort(all)
	return stat(all)
}

// percentile is the quiet decile over windows of each window's p-th
// percentile.
func (s *windowSamples) percentile(p float64) (float64, error) {
	return s.quietOf(func(sorted []int64) (float64, error) {
		v, err := percentile(sorted, p)
		return float64(v), err
	})
}

// mid is the quiet decile over windows of each window's midmean; a
// window needs 2*minBeyond samples for one.
func (s *windowSamples) mid() (float64, error) {
	return s.quietOf(func(sorted []int64) (float64, error) {
		if len(sorted) < 2*minBeyond {
			return 0, fmt.Errorf("midmean of %d samples, need %d", len(sorted), 2*minBeyond)
		}
		return midmean(sorted), nil
	})
}

func (t *tally) failed() uint64 { return t.attempted - t.ok }

// windowOps counts ok ops per window of a timed pass.
type windowOps [windows]float64

// credit books ops that completed over [begin, end) (offsets into a pass
// of the given length) to the windows that interval overlaps, in
// proportion; what falls after the pass's end is dropped. Spreading
// matters for sim-sweep, whose events are a tenth of a window long.
func (w *windowOps) credit(begin, end, length time.Duration, ops float64) {
	width := length / windows
	if width <= 0 || end <= begin {
		return
	}
	for i := int(begin / width); i < windows && time.Duration(i)*width < end; i++ {
		lo, hi := max(begin, time.Duration(i)*width), min(end, time.Duration(i+1)*width)
		w[i] += ops * float64(hi-lo) / float64(end-begin)
	}
}

// quietRate is ops per second in the quiet decile of windows.
func (w *windowOps) quietRate(length time.Duration) float64 {
	per := make([]float64, windows)
	for i, n := range w {
		per[i] = n / (length.Seconds() / windows)
	}
	return quiet(per, "higher")
}

// windowCPU is the process's CPU time at each window boundary of a timed
// pass, as read by client 0 when its first event past the boundary
// returns: late by at most one event, which is a thousandth of a window.
type windowCPU struct {
	at   [windows + 1]time.Duration
	next int // the boundary to stamp next
}

// stamp records the CPU clock for every boundary up to offset now.
func (c *windowCPU) stamp(now, length time.Duration) {
	if length <= 0 || c.next > windows || now < time.Duration(c.next)*length/windows {
		return
	}
	cpu := cpuTime()
	for ; c.next <= windows && now >= time.Duration(c.next)*length/windows; c.next++ {
		c.at[c.next] = cpu
	}
}

// quietPerOp is CPU microseconds per ok op in the quiet decile of the
// windows both of whose boundaries were stamped and that saw ops.
func (c *windowCPU) quietPerOp(ops *windowOps) (float64, error) {
	per := make([]float64, 0, windows)
	for w := 0; w+1 < c.next; w++ {
		if ops[w] > 0 && c.at[w+1] > c.at[w] {
			per = append(per, micros(c.at[w+1]-c.at[w])/ops[w])
		}
	}
	if len(per) < windows/2 {
		return 0, fmt.Errorf("CPU clock read in %d of %d windows", len(per), windows)
	}
	return quiet(per, "lower"), nil
}

// drive runs one pass and blocks until every client has returned.
func drive(ctx context.Context, cfg driveConfig) tally {
	clients := len(cfg.targets)
	parts := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(ctx, cfg, c, clients, start, &parts[c])
		}(c)
	}
	wg.Wait()

	var total tally
	for i := range parts {
		p := &parts[i]
		total.events += p.events
		total.attempted += p.attempted
		total.ok += p.ok
		total.wrong += p.wrong
		total.reads += p.reads
		for w := range p.win {
			total.win[w] += p.win[w]
			total.lat[w] = append(total.lat[w], p.lat[w]...)
		}
		if i == 0 {
			total.cpu = p.cpu
		}
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

// runClient is client c of n: it owns ring events c, c+n, c+2n, ...
// (cyclically), so each client's op order is the same on every run.
func runClient(ctx context.Context, cfg driveConfig, c, n int, start time.Time, t *tally) {
	evs := cfg.ring.events
	tgt := cfg.targets[c]
	for k := c; ; k += n {
		begin := time.Now()
		if c == 0 {
			cfg.ref.tick(begin.Sub(start))
			t.cpu.stamp(begin.Sub(start), cfg.length)
		}
		if cfg.maxEvents > 0 && k >= cfg.maxEvents || cfg.maxEvents == 0 && begin.Sub(start) >= cfg.length {
			return
		}

		ops := evs[k%len(evs)].Ops
		res, err := tgt.DoCtx(ctx, ops)
		end := time.Now()

		t.events++
		t.attempted += uint64(len(ops))
		t.lat.add(end.Sub(start), cfg.length, int64(end.Sub(begin)))
		if err == nil && len(res) != len(ops) {
			err = fmt.Errorf("%d results for %d ops", len(res), len(ops))
		}
		if err != nil {
			if t.firstErr == nil {
				t.firstErr = err
			}
			if errors.Is(err, context.Canceled) {
				return
			}
			continue
		}
		var ok uint64
		for i := range ops {
			switch {
			case res[i].Err != nil:
				if t.firstErr == nil {
					t.firstErr = fmt.Errorf("op at %d: %w", ops[i].Addr, res[i].Err)
				}
			case ops[i].Write:
				ok++
			default:
				t.reads++
				if cfg.ring.legal(ops[i].Addr, res[i].Data) {
					ok++
				} else {
					t.wrong++
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("read of %d returned bytes no write put there", ops[i].Addr)
					}
				}
			}
		}
		t.ok += ok
		t.win.credit(begin.Sub(start), end.Sub(start), cfg.length, float64(ok))
	}
}
