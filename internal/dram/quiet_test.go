package dram

import (
	"strings"
	"testing"

	"attache/internal/check"
	"attache/internal/config"
	"attache/internal/sim"
)

// quietScenario queues three reads to one row of bank 0 and one to a
// closed row of bank 1. At cycle 10 the third row hit issues and pushes
// the bus out to 140; the bank-1 read (tRCD + tCAS + burst = 120 of its
// own work) cannot pass until 140 − 120 = 20, so the second scan of
// that tick finds nothing and records a quiet time of 20. The channel's
// next wake is cycle 20, when the read issues and finishes at 150.
func quietScenario(ch *Channel) *sim.Time {
	for col := 0; col < 3; col++ {
		ch.Submit(&Request{Loc: Location{Row: 1, Col: col}, SubRanks: SubRankBoth})
	}
	done := sim.Time(-1)
	ch.Submit(&Request{Loc: Location{Bank: 1, Row: 1}, SubRanks: SubRankBoth,
		Done: func(now sim.Time) { done = now }})
	return &done
}

func TestFruitlessScanRecordsQuietTime(t *testing.T) {
	eng, ch, _ := testChannel()
	done := quietScenario(ch)
	eng.Run(11)
	if ch.readQ.quiet != 20 {
		t.Fatalf("quiet time after the fruitless scan at cycle 10 = %d, want 20", ch.readQ.quiet)
	}
	// A newcomer that is issuable sooner lowers the queue's time: this
	// row hit on bank 0 needs only 140 − 65 = 75 <= readyAt, so 0.
	ch.Submit(&Request{Loc: Location{Row: 1, Col: 3}, SubRanks: SubRankBoth})
	if ch.readQ.quiet != 0 {
		t.Fatalf("quiet time after an issuable newcomer = %d, want 0", ch.readQ.quiet)
	}
	eng.RunUntilDone(1000)
	if *done < 0 {
		t.Fatal("bank-1 read never completed")
	}
}

// TestQuietSkipIsInvisible runs the scenario with and without the audit
// (which replays every skipped scan): same completion, same event count,
// no failure.
func TestQuietSkipIsInvisible(t *testing.T) {
	eng, ch, _ := testChannel()
	done := quietScenario(ch)
	eng.RunUntilDone(1000)

	engA, chA, _ := testChannel()
	var rec check.Recorder
	chA.EnableAudit(&rec)
	doneA := quietScenario(chA)
	engA.RunUntilDone(1000)

	if *done != 150 || *doneA != *done {
		t.Fatalf("bank-1 read finished at %d (audited %d), want 150", *done, *doneA)
	}
	if eng.Steps() != engA.Steps() {
		t.Fatalf("audit changed the event count: %d vs %d", eng.Steps(), engA.Steps())
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
}

// TestMutationQuietInflate proves the audit catches an overstated quiet
// time: inflated by a burst to 30 right after the fruitless scan at cycle
// 10 recorded it, the channel skips the scan at cycle 20 that would have
// issued the bank-1 read.
func TestMutationQuietInflate(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, config.Default(), 3)
	var rec check.Recorder
	ch.EnableAudit(&rec)
	done := quietScenario(ch)
	eng.Run(11)
	if ch.readQ.quiet != 20 {
		t.Fatalf("quiet time after the fruitless scan at cycle 10 = %d, want 20", ch.readQ.quiet)
	}
	ch.readQ.quiet += ch.tBurst
	eng.RunUntilDone(1000)

	err := rec.Err()
	if err == nil {
		t.Fatal("inflated quiet time escaped the audit")
	}
	for _, want := range []string{"channel 3", "cycle 20", "quiet until 30"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic %q does not name %q", err.Error(), want)
		}
	}
	if *done < 0 {
		t.Fatal("bank-1 read never completed")
	}
}

func TestRefreshResetsQuietTime(t *testing.T) {
	eng, ch, _ := testChannel()
	ch.readQ.quiet, ch.writeQ.quiet = 1<<40, 1<<40
	eng.Schedule(ch.tREFI, ch.tickFn)
	eng.RunUntilDone(10)
	if ch.readQ.quiet != 0 || ch.writeQ.quiet != 0 {
		t.Fatalf("refresh left quiet times %d/%d standing", ch.readQ.quiet, ch.writeQ.quiet)
	}
}

// TestQueueRemovalClearsTailSlot: removal shifts the queue down over the
// issued request; the vacated tail slot of the backing array must not keep
// a completed request's callback alive.
func TestQueueRemovalClearsTailSlot(t *testing.T) {
	eng, ch, _ := testChannel()
	completed := 0
	for col := 0; col < 4; col++ {
		ch.Submit(&Request{Loc: Location{Row: 1, Col: col}, SubRanks: SubRankBoth,
			Done: func(sim.Time) { completed++ }})
	}
	backing := ch.readQ.reqs[:4]
	eng.RunUntilDone(1000)
	if completed != 4 || len(ch.readQ.reqs) != 0 {
		t.Fatalf("completed %d of 4, %d still queued", completed, len(ch.readQ.reqs))
	}
	for i := range backing {
		if backing[i].done != nil {
			t.Fatalf("slot %d of the drained queue still holds a done callback", i)
		}
	}
}
