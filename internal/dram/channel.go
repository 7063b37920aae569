package dram

import (
	"fmt"
	"math"

	"attache/internal/check"
	"attache/internal/config"
	"attache/internal/sim"
	"attache/internal/stats"
)

// SubRankMask selects which sub-ranks a request touches.
type SubRankMask uint8

// Masks for the two sub-ranks of a rank. A non-sub-ranked (baseline)
// system always uses SubRankBoth: the chips operate in lockstep.
const (
	SubRank0    SubRankMask = 1
	SubRank1    SubRankMask = 2
	SubRankBoth SubRankMask = 3
)

// Request is one DRAM access submitted to a channel.
type Request struct {
	Write    bool
	Loc      Location
	SubRanks SubRankMask
	// DoubleBurst doubles the data-transfer time: a 64-byte access
	// serviced by a single sub-rank (Fig. 2(b), sub-ranking without
	// compression).
	DoubleBurst bool
	// Done runs at completion (reads: data returned; writes: written).
	// May be nil for posted writes.
	Done func(now sim.Time)
}

// queued is what the scheduler keeps of a submitted Request: the queues
// hold it by value, so a scan walks contiguous memory, the bank index is
// decoded once, and the caller's *Request never escapes Submit.
type queued struct {
	done     func(now sim.Time)
	arrive   sim.Time
	row, col int
	bank     int // index into banks[s]
	subRanks SubRankMask
	write    bool
	double   bool
}

// reqQueue is one of a channel's two request queues.
type reqQueue struct {
	reqs []queued
	// quiet is set when a scan finds nothing issuable: the earliest time
	// any queued request becomes issuable while banks and buses stay as
	// they are (the minimum of availableAt over reqs). tick skips the
	// scan until then. The three state changes that invalidate it: issue
	// and an applied refresh move banks or buses and zero both queues'
	// times; Submit lowers its queue's time by the newcomer's. Zero
	// means unknown: scan.
	quiet sim.Time
}

// remove deletes reqs[i], keeping arrival order, and clears the vacated
// tail slot so the queue's backing array does not pin a completed
// request's callback.
func (q *reqQueue) remove(i int) queued {
	r := q.reqs[i]
	n := len(q.reqs) - 1
	copy(q.reqs[i:], q.reqs[i+1:])
	q.reqs[n] = queued{}
	q.reqs = q.reqs[:n]
	return r
}

// ChannelStats aggregates per-channel activity.
type ChannelStats struct {
	Reads          stats.Counter
	Writes         stats.Counter
	BytesRead      stats.Counter
	BytesWritten   stats.Counter
	RowHits        stats.Ratio // over issued requests
	ReadLatency    stats.Mean  // arrival to data return, CPU cycles
	QueuedReadMax  int
	QueuedWriteMax int
	BusBusy        [2]sim.Time // per-sub-rank data-bus occupancy, CPU cycles
}

type bank struct {
	open    bool
	row     int
	readyAt sim.Time
}

// Channel is one memory channel: banks (per sub-rank), the data buses,
// request queues, and the FR-FCFS scheduler with read priority and
// watermark-based write draining (paper §V).
type Channel struct {
	eng *sim.Engine
	cfg config.Config
	id  int

	banks   [2][]bank // [subRank][bankIndex]; lockstep in baseline mode
	busFree [2]sim.Time

	readQ  reqQueue
	writeQ reqQueue

	draining    bool
	nextRefresh sim.Time
	wakeAt      sim.Time
	wakePending bool
	tickFn      sim.Event // cached method value: avoids a closure per wake

	// Converted timing, in CPU cycles.
	tRCD, tRP, tCAS, tBurst, tRFC, tREFI, tFAW sim.Time

	// actTimes tracks the last four activation times per sub-rank for
	// the tFAW constraint (ring buffers).
	actTimes [2][4]sim.Time
	actHead  [2]int

	// audit, when non-nil, validates bus/conservation invariants on
	// every request (config.CheckInvariants and above).
	audit *check.BusAudit

	Stats  ChannelStats
	Energy Energy
}

// NewChannel builds channel id for cfg, attached to the engine.
func NewChannel(eng *sim.Engine, cfg config.Config, id int) *Channel {
	nb := cfg.DRAM.BankGroups * cfg.DRAM.BanksPerGroup
	c := &Channel{
		eng:    eng,
		cfg:    cfg,
		id:     id,
		tRCD:   cfg.BusToCPU(cfg.DRAM.TRCD),
		tRP:    cfg.BusToCPU(cfg.DRAM.TRP),
		tCAS:   cfg.BusToCPU(cfg.DRAM.TCAS),
		tBurst: cfg.BusToCPU(cfg.DRAM.BurstBusCycles),
		tRFC:   cfg.BusToCPU(cfg.DRAM.TRFC),
		tREFI:  cfg.BusToCPU(cfg.DRAM.TREFI),
		tFAW:   cfg.BusToCPU(cfg.DRAM.TFAW),
	}
	c.banks[0] = make([]bank, nb)
	c.banks[1] = make([]bank, nb)
	c.nextRefresh = c.tREFI
	c.tickFn = c.tick
	return c
}

// EnableAudit attaches a bus/conservation invariant checker reporting
// into rec. Auditing observes scheduling decisions without changing
// them, so timing and stats are identical with or without it.
func (c *Channel) EnableAudit(rec *check.Recorder) {
	c.audit = check.NewBusAudit(rec, c.id)
}

// AuditDrained runs the end-of-simulation conservation check (no-op
// without an audit).
func (c *Channel) AuditDrained(now sim.Time) {
	if c.audit != nil {
		c.audit.CheckDrained(len(c.readQ.reqs), len(c.writeQ.reqs), now)
	}
}

// Submit enqueues a request. Writes are posted into the write buffer;
// reads go to the read queue. The scheduler wakes immediately if it is
// not already due sooner. The channel copies what it needs: r is not
// retained.
func (c *Channel) Submit(r *Request) {
	if r.SubRanks == 0 || r.SubRanks > SubRankBoth {
		panic(fmt.Sprintf("dram: invalid sub-rank mask %d", r.SubRanks))
	}
	now := c.eng.Now()
	if c.audit != nil {
		c.audit.OnSubmit()
	}
	q, depthMax := &c.readQ, &c.Stats.QueuedReadMax
	if r.Write {
		q, depthMax = &c.writeQ, &c.Stats.QueuedWriteMax
	}
	q.reqs = append(q.reqs, queued{
		done:     r.Done,
		arrive:   now,
		row:      r.Loc.Row,
		col:      r.Loc.Col,
		bank:     r.Loc.Group*c.cfg.DRAM.BanksPerGroup + r.Loc.Bank,
		subRanks: r.SubRanks,
		write:    r.Write,
		double:   r.DoubleBurst,
	})
	if len(q.reqs) > *depthMax {
		*depthMax = len(q.reqs)
	}
	if q.quiet > 0 {
		if at := c.availableAt(&q.reqs[len(q.reqs)-1]); at < q.quiet {
			q.quiet = at
		}
	}
	c.wake(now)
}

// wake ensures a scheduler event fires no later than at.
func (c *Channel) wake(at sim.Time) {
	if c.wakePending && c.wakeAt <= at {
		return
	}
	c.wakePending = true
	c.wakeAt = at
	c.eng.Schedule(at, c.tickFn)
}

func (c *Channel) tick(now sim.Time) {
	if c.wakePending && now < c.wakeAt {
		return // stale wake superseded by an earlier one
	}
	c.wakePending = false
	c.refreshIfDue(now)

	// Issue up to one request per sub-rank bus per wake; decisions are
	// refreshed every burst slot so FR-FCFS reacts to newly open rows.
	for issued := 0; issued < 2; issued++ {
		q := c.pickQueue()
		if q == nil {
			break
		}
		if now < q.quiet {
			// The last scan proved nothing here can issue yet. The
			// audit replays the scan to hold that proof to account.
			if c.audit != nil {
				if idx, _ := c.pickIssuable(q.reqs, now); idx >= 0 {
					c.audit.OnQuietSkip(auditAddr(&q.reqs[idx]), q.quiet, now)
				}
			}
			break
		}
		idx, quiet := c.pickIssuable(q.reqs, now)
		if idx < 0 {
			q.quiet = quiet
			break
		}
		c.issue(now, q.remove(idx))
	}

	if len(c.readQ.reqs) > 0 || len(c.writeQ.reqs) > 0 {
		next := c.busFree[0]
		if c.busFree[1] < next {
			next = c.busFree[1]
		}
		// Wake a CAS latency before the bus frees so the next column
		// command overlaps the in-flight burst — but no later than one
		// burst from now, so bank-preparation-bound requests (which may
		// become issuable before the bus frees) are reconsidered.
		next -= c.tCAS
		if next > now+c.tBurst {
			next = now + c.tBurst
		}
		if next <= now {
			next = now + 1
		}
		c.wake(next)
	}
}

// pickQueue applies read priority with watermark write draining: writes
// are serviced when the buffer passes the high watermark (until it falls
// to the low watermark) or opportunistically when no reads wait.
func (c *Channel) pickQueue() *reqQueue {
	if len(c.writeQ.reqs) >= c.cfg.DRAM.WriteHighWater {
		c.draining = true
	}
	if c.draining && len(c.writeQ.reqs) <= c.cfg.DRAM.WriteLowWater {
		c.draining = false
	}
	useWrites := c.draining || len(c.readQ.reqs) == 0
	if useWrites && len(c.writeQ.reqs) > 0 {
		return &c.writeQ
	}
	if len(c.readQ.reqs) > 0 {
		return &c.readQ
	}
	return nil
}

// pickIssuable applies FR-FCFS among requests whose data bus will be free
// within one burst slot: the first row hit wins, then the oldest
// request. It returns -1 when every candidate's bus is
// committed too far ahead, keeping scheduling decisions within a burst of
// real time — and then also the earliest time one of them will pass,
// the queue's quiet time.
func (c *Channel) pickIssuable(q []queued, now sim.Time) (idx int, quiet sim.Time) {
	oldest := -1
	quiet = math.MaxInt64
	for i := range q {
		r := &q[i]
		if at := c.availableAt(r); at > now {
			if at < quiet {
				quiet = at
			}
			continue
		}
		if !c.cfg.DRAM.SchedFCFS && c.isRowHit(r) {
			return i, 0
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest, quiet
}

// availableAt reports the earliest time the request could deliver its
// data within one burst of when its bus frees, given the banks and buses
// as they stand; the request is issuable at now iff availableAt <= now.
// The estimate accounts for the request's own bank preparation
// (precharge + activate + CAS): a row-miss request whose data cannot
// arrive before the bus frees anyway is issuable — its bank work
// overlaps the in-flight bursts — while requests that would stack the
// bus more than one burst ahead wait. This keeps bank-level parallelism
// alive under row-miss-heavy traffic without over-committing the data
// bus.
//
// On sub-rank s the column command starts at max(readyAt, now) + prep
// (prep = 0 on a row hit, tRCD on a closed bank, tRP+tRCD on a
// conflict) and the request waits while busFree[s] > start + tCAS +
// tBurst, that is while max(readyAt, now) < need = busFree[s] − tBurst
// − tCAS − prep. A sub-rank whose bank is ready no earlier than need
// never holds the request back; any other releases it at need. The
// request's time is the latest over its sub-ranks.
func (c *Channel) availableAt(r *queued) sim.Time {
	var at sim.Time
	for s := 0; s < 2; s++ {
		if r.subRanks&(1<<uint(s)) == 0 {
			continue
		}
		b := &c.banks[s][r.bank]
		need := c.busFree[s] - c.tBurst - c.tCAS
		if !b.open || b.row != r.row {
			if b.open {
				need -= c.tRP
			}
			need -= c.tRCD
		}
		if b.readyAt < need && need > at {
			at = need
		}
	}
	return at
}

func (c *Channel) isRowHit(r *queued) bool {
	for s := 0; s < 2; s++ {
		if r.subRanks&(1<<uint(s)) == 0 {
			continue
		}
		b := &c.banks[s][r.bank]
		if !b.open || b.row != r.row {
			return false
		}
	}
	return true
}

// issue computes the request's service against bank and bus state,
// charges energy, and schedules its completion.
func (c *Channel) issue(now sim.Time, r queued) {
	// Banks and buses move: what either queue's last scan proved is void.
	c.readQ.quiet, c.writeQ.quiet = 0, 0
	burst := c.tBurst
	if r.double {
		burst *= 2
	}
	rowHit := c.isRowHit(&r)
	c.Stats.RowHits.Observe(rowHit)
	if c.audit != nil {
		c.audit.OnIssue(auditAddr(&r), now)
	}

	subranks := 0
	var finish sim.Time
	for s := 0; s < 2; s++ {
		if r.subRanks&(1<<uint(s)) == 0 {
			continue
		}
		subranks++
		b := &c.banks[s][r.bank]
		start := b.readyAt
		if start < now {
			start = now
		}
		if !b.open || b.row != r.row {
			if b.open {
				start += c.tRP // precharge the old row
			}
			// The four-activate window: the new ACT may not issue until
			// tFAW after the fourth-last activation on this sub-rank.
			if c.tFAW > 0 {
				if earliest := c.actTimes[s][c.actHead[s]] + c.tFAW; start < earliest {
					start = earliest
				}
				c.actTimes[s][c.actHead[s]] = start
				c.actHead[s] = (c.actHead[s] + 1) % 4
			}
			start += c.tRCD // activate the new row
			b.open = true
			b.row = r.row
			// Each half-rank activation is charged separately; a
			// lockstep (both-sub-rank) activation costs two halves,
			// which equals one full-rank activate.
			c.Energy.HalfActivates++
		}
		casDone := start + c.tCAS
		dataStart := casDone
		if c.busFree[s] > dataStart {
			dataStart = c.busFree[s]
		}
		dataEnd := dataStart + burst
		if c.audit != nil {
			c.audit.OnBurst(s, dataStart, dataEnd, auditAddr(&r), now)
		}
		c.busFree[s] = dataEnd
		c.Stats.BusBusy[s] += burst
		// The bank accepts its next column command one burst after this
		// one (tCCD); CAS commands pipeline so bursts run back-to-back.
		b.readyAt = start + burst
		if c.cfg.DRAM.ClosedPage {
			// Auto-precharge: the row closes after the access; the
			// precharge overlaps the data burst.
			b.open = false
		}
		if dataEnd > finish {
			finish = dataEnd
		}
	}
	bytes := uint64(subranks) * 32
	if r.double {
		bytes *= 2
	}
	if r.write {
		c.Stats.Writes.Inc()
		c.Stats.BytesWritten.Add(bytes)
		if subranks == 2 {
			c.Energy.Writes64++
		} else if r.double {
			c.Energy.Writes64++
		} else {
			c.Energy.Writes32++
		}
	} else {
		c.Stats.Reads.Inc()
		c.Stats.BytesRead.Add(bytes)
		if subranks == 2 {
			c.Energy.Reads64++
		} else if r.double {
			c.Energy.Reads64++
		} else {
			c.Energy.Reads32++
		}
		c.Stats.ReadLatency.Observe(float64(finish - r.arrive))
	}
	if r.done != nil {
		c.eng.Schedule(finish, r.done)
	}
}

// auditAddr folds a DRAM coordinate into one diagnostic address for
// check failures: row and column identify the block within the channel.
func auditAddr(r *queued) uint64 {
	return uint64(r.row)<<16 | uint64(r.col)
}

// refreshIfDue blocks all banks for tRFC once per tREFI window.
func (c *Channel) refreshIfDue(now sim.Time) {
	for now >= c.nextRefresh {
		start := c.nextRefresh
		for s := 0; s < 2; s++ {
			for i := range c.banks[s] {
				b := &c.banks[s][i]
				if b.readyAt < start {
					b.readyAt = start
				}
				b.readyAt += c.tRFC
				b.open = false // refresh closes rows
			}
		}
		c.Energy.Refreshes++
		c.nextRefresh += c.tREFI
		c.readQ.quiet, c.writeQ.quiet = 0, 0
	}
}

// Drained reports whether both queues are empty (simulation end check).
func (c *Channel) Drained() bool {
	return len(c.readQ.reqs) == 0 && len(c.writeQ.reqs) == 0
}
