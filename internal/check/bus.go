package check

import "attache/internal/sim"

// BusAudit asserts one DRAM channel's conservation and timing
// invariants:
//
//   - every submitted request is eventually issued (checked at drain);
//   - issued never exceeds submitted (queue accounting cannot go
//     negative);
//   - per-sub-rank data-bus bursts never overlap: each burst must start
//     at or after the previous burst on that sub-rank ended;
//   - a queue scan the scheduler skipped as provably fruitless would
//     have found nothing to issue.
//
// The audit is pure observation: the channel reports what it decided and
// the audit validates, so enabling it cannot perturb scheduling.
type BusAudit struct {
	rec       *Recorder
	id        int // channel id, for diagnostics
	busEnd    [2]sim.Time
	submitted uint64
	issued    uint64
}

// NewBusAudit builds an audit for channel id reporting into rec.
func NewBusAudit(rec *Recorder, id int) *BusAudit {
	return &BusAudit{rec: rec, id: id}
}

// OnSubmit records one request entering the channel queues.
func (a *BusAudit) OnSubmit() { a.submitted++ }

// OnBurst validates one data-bus burst on sub-rank sub, for the request
// addressed by row/col (folded into the diagnostic address).
func (a *BusAudit) OnBurst(sub int, start, end sim.Time, addr uint64, now sim.Time) {
	if start < a.busEnd[sub] {
		a.rec.Failf(addr, now,
			"channel %d sub-rank %d data-bus overlap: burst starts at %d before previous ends at %d",
			a.id, sub, start, a.busEnd[sub])
	}
	if end < start {
		a.rec.Failf(addr, now, "channel %d sub-rank %d burst ends (%d) before it starts (%d)", a.id, sub, end, start)
	}
	a.busEnd[sub] = end
}

// OnIssue records one request leaving the queues for service.
func (a *BusAudit) OnIssue(addr uint64, now sim.Time) {
	a.issued++
	if a.issued > a.submitted {
		a.rec.Failf(addr, now,
			"channel %d issued more requests (%d) than were submitted (%d)", a.id, a.issued, a.submitted)
	}
}

// OnQuietSkip reports a skipped queue scan that, replayed, found the
// request at addr issuable: the channel believed the queue quiet until
// quietUntil and was wrong.
func (a *BusAudit) OnQuietSkip(addr uint64, quietUntil, now sim.Time) {
	a.rec.Failf(addr, now,
		"channel %d skipped a queue scan at cycle %d as quiet until %d, but a request was issuable",
		a.id, now, quietUntil)
}

// CheckDrained validates end-of-simulation conservation: with empty
// queues, every submitted request must have been issued.
func (a *BusAudit) CheckDrained(queuedReads, queuedWrites int, now sim.Time) {
	if queuedReads < 0 || queuedWrites < 0 {
		a.rec.Failf(0, now, "channel %d negative queue occupancy (reads=%d writes=%d)", a.id, queuedReads, queuedWrites)
	}
	inQueue := uint64(queuedReads + queuedWrites)
	if a.issued+inQueue != a.submitted {
		a.rec.Failf(0, now,
			"channel %d request conservation: submitted=%d issued=%d still-queued=%d",
			a.id, a.submitted, a.issued, inQueue)
	}
}
