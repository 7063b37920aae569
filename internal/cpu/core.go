// Package cpu models the out-of-order cores of Table II with an
// event-driven interval technique: a core advances through its
// instruction stream at the issue width, issues memory references as it
// reaches them, and stalls when the reorder buffer fills behind an
// outstanding load, when it runs out of MSHRs, or when a dependent
// (pointer-chasing) load must wait for the previous one. This captures
// the two properties the paper's results hinge on — memory-level
// parallelism and sensitivity to memory latency/bandwidth — at a tiny
// fraction of the cost of per-instruction simulation.
package cpu

import (
	"math"

	"attache/internal/check"
	"attache/internal/sim"
	"attache/internal/trace"
)

// Memory is the first level below the core (the shared LLC).
type Memory interface {
	Read(lineAddr uint64, done func(now sim.Time))
	Write(lineAddr uint64)
}

// Config holds the core parameters.
type Config struct {
	IssueWidth int
	ROBSize    int64
	MSHRs      int
	// Audit, when set, enables the core's occupancy invariants: the
	// outstanding-load count must never exceed the MSHRs and the issue
	// window must stay within the ROB (config.CheckInvariants and
	// above). Auditing observes; it never changes issue decisions.
	Audit *check.Recorder
}

// Stats counts core activity.
type Stats struct {
	Instructions int64
	Loads        int64
	Stores       int64
	StallCycles  int64 // cycles spent fully blocked
}

type pendingLoad struct {
	instrPos int64
	done     bool
}

// loadSlot carries one outstanding load's completion: the issue position
// and a callback bound once, when the slot is first allocated. A slot is
// taken at issue and returned when its load completes, so a core never
// holds more than MSHRs of them.
type loadSlot struct {
	c        *Core
	instrPos int64
	doneFn   func(now sim.Time)
}

func (l *loadSlot) complete(now sim.Time) {
	c, pos := l.c, l.instrPos
	c.slotFree = append(c.slotFree, l) // before complete: it may issue again
	c.complete(pos, now)
}

// Core replays one trace generator's stream against a memory hierarchy.
type Core struct {
	eng      *sim.Engine
	id       int
	cfg      Config
	gen      trace.Source
	mem      Memory
	target   int64 // memory references to issue
	onFinish func(now sim.Time)

	pos        int64 // instructions issued so far
	issued     int64 // memory references issued
	cur        trace.Access
	nextMemAt  int64
	pending    []pendingLoad
	slotFree   []*loadSlot
	lastUpdate sim.Time
	blockedAt  sim.Time // time the core became fully blocked, -1 if running
	finished   bool
	finishTime sim.Time

	wakePending bool
	wakeAt      sim.Time
	tickFn      sim.Event // cached method value: avoids a closure per wake

	Stats Stats
}

// NewCore builds a core that will issue target memory references from gen.
func NewCore(eng *sim.Engine, id int, cfg Config, gen trace.Source, target int64, mem Memory, onFinish func(sim.Time)) *Core {
	if cfg.IssueWidth <= 0 || cfg.ROBSize <= 0 || cfg.MSHRs <= 0 {
		panic("cpu: config values must be positive")
	}
	if target <= 0 {
		panic("cpu: target must be positive")
	}
	c := &Core{
		eng: eng, id: id, cfg: cfg, gen: gen, mem: mem,
		target: target, onFinish: onFinish, blockedAt: -1,
		pending: make([]pendingLoad, 0, cfg.MSHRs),
	}
	c.tickFn = c.tick
	return c
}

// StartAt schedules the core's first activity at the given time. The
// harness staggers rate-mode cores by a few cycles so identical traces do
// not run in lockstep and phase-lock against the write-drain machinery.
func (c *Core) StartAt(at sim.Time) {
	c.cur = c.gen.Next()
	c.nextMemAt = c.cur.Gap
	c.lastUpdate = at
	c.wake(at)
}

// Finished reports completion and the finish time.
func (c *Core) Finished() (bool, sim.Time) { return c.finished, c.finishTime }

func (c *Core) wake(at sim.Time) {
	if c.wakePending && c.wakeAt <= at {
		return
	}
	c.wakePending = true
	c.wakeAt = at
	c.eng.Schedule(at, c.tickFn)
}

// robLimit reports the highest instruction position the core may issue:
// the oldest incomplete load plus the ROB window.
func (c *Core) robLimit() int64 {
	if len(c.pending) == 0 {
		return math.MaxInt64
	}
	return c.pending[0].instrPos + c.cfg.ROBSize
}

func (c *Core) tick(now sim.Time) {
	if c.finished {
		return
	}
	if c.wakePending && now < c.wakeAt {
		return // superseded stale wake
	}
	c.wakePending = false

	if c.blockedAt >= 0 {
		c.Stats.StallCycles += now - c.blockedAt
		c.blockedAt = -1
		c.lastUpdate = now
	}
	avail := (now - c.lastUpdate) * int64(c.cfg.IssueWidth)
	c.lastUpdate = now

	for {
		if c.issued >= c.target {
			if len(c.pending) == 0 {
				c.finished = true
				c.finishTime = now
				c.Stats.Instructions = c.pos
				if c.onFinish != nil {
					c.onFinish(now)
				}
			}
			// else: wait for outstanding loads; completions wake us.
			return
		}
		limit := c.robLimit()
		stopAt := c.nextMemAt
		if limit < stopAt {
			stopAt = limit
		}
		if c.pos < stopAt {
			adv := stopAt - c.pos
			if adv > avail {
				adv = avail
			}
			c.pos += adv
			avail -= adv
			if c.pos < stopAt {
				// Out of issue slots this instant: wake when the
				// remaining instructions will have issued.
				need := stopAt - c.pos
				w := int64(c.cfg.IssueWidth)
				c.wake(now + (need+w-1)/w)
				return
			}
		}
		if c.pos >= limit && limit <= c.nextMemAt {
			c.block(now) // ROB full behind oldest load
			return
		}
		// pos reached the next memory reference: try to issue it.
		if c.cur.Dependent && len(c.pending) > 0 {
			c.block(now)
			return
		}
		if !c.cur.Store && len(c.pending) >= c.cfg.MSHRs {
			c.block(now)
			return
		}
		c.issueCurrent(now)
	}
}

func (c *Core) block(now sim.Time) {
	if c.blockedAt < 0 {
		c.blockedAt = now
	}
}

func (c *Core) issueCurrent(now sim.Time) {
	addr := c.cur.LineAddr
	if c.cur.Store {
		c.Stats.Stores++
		c.mem.Write(addr)
	} else {
		c.Stats.Loads++
		if c.cfg.Audit != nil {
			if len(c.pending) >= c.cfg.MSHRs {
				c.cfg.Audit.Failf(addr, now, "core %d MSHR overflow: %d loads outstanding with %d MSHRs",
					c.id, len(c.pending)+1, c.cfg.MSHRs)
			}
			if len(c.pending) > 0 && c.pos-c.pending[0].instrPos > c.cfg.ROBSize {
				c.cfg.Audit.Failf(addr, now, "core %d issued past the ROB window: pos=%d oldest=%d size=%d",
					c.id, c.pos, c.pending[0].instrPos, c.cfg.ROBSize)
			}
		}
		c.pending = append(c.pending, pendingLoad{instrPos: c.pos})
		var l *loadSlot
		if n := len(c.slotFree); n > 0 {
			l = c.slotFree[n-1]
			c.slotFree = c.slotFree[:n-1]
		} else {
			l = &loadSlot{c: c}
			l.doneFn = l.complete
		}
		l.instrPos = c.pos
		c.mem.Read(addr, l.doneFn)
	}
	c.issued++
	c.cur = c.gen.Next()
	c.nextMemAt = c.pos + c.cur.Gap
}

// complete marks the load issued at instrPos done, retires the completed
// prefix (in-order retirement), and wakes the core.
func (c *Core) complete(instrPos int64, now sim.Time) {
	for i := range c.pending {
		if c.pending[i].instrPos == instrPos && !c.pending[i].done {
			c.pending[i].done = true
			break
		}
	}
	n := 0
	for n < len(c.pending) && c.pending[n].done {
		n++
	}
	if n > 0 {
		// Compact in place: re-slicing forward would walk the backing
		// array off its end and make append reallocate for the whole run.
		c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	}
	c.tick(now)
}
