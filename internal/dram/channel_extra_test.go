package dram

import (
	"math/rand"
	"testing"

	"attache/internal/config"
	"attache/internal/sim"
)

func TestDoubleBurstEnergyCountsFullLine(t *testing.T) {
	eng, ch, _ := testChannel()
	ch.Submit(&Request{Loc: Location{Row: 1}, SubRanks: SubRank0, DoubleBurst: true})
	ch.Submit(&Request{Write: true, Loc: Location{Row: 2, Bank: 1}, SubRanks: SubRank1, DoubleBurst: true})
	eng.RunUntilDone(10000)
	if ch.Energy.Reads64 != 1 || ch.Energy.Reads32 != 0 {
		t.Fatalf("double-burst read counted as %d/%d", ch.Energy.Reads64, ch.Energy.Reads32)
	}
	if ch.Energy.Writes64 != 1 || ch.Energy.Writes32 != 0 {
		t.Fatalf("double-burst write counted as %d/%d", ch.Energy.Writes64, ch.Energy.Writes32)
	}
	if ch.Stats.BytesRead.Value() != 64 || ch.Stats.BytesWritten.Value() != 64 {
		t.Fatalf("bytes = %d/%d, want 64/64",
			ch.Stats.BytesRead.Value(), ch.Stats.BytesWritten.Value())
	}
}

func TestQueueDepthsVisible(t *testing.T) {
	eng, ch, _ := testChannel()
	for i := 0; i < 5; i++ {
		ch.Submit(&Request{Loc: Location{Row: i}, SubRanks: SubRankBoth})
	}
	for i := 0; i < 3; i++ {
		ch.Submit(&Request{Write: true, Loc: Location{Row: i}, SubRanks: SubRankBoth})
	}
	r, w := len(ch.readQ.reqs), len(ch.writeQ.reqs)
	if r != 5 || w != 3 {
		t.Fatalf("depths = %d/%d, want 5/3", r, w)
	}
	eng.RunUntilDone(1000000)
	if !ch.Drained() {
		t.Fatal("channel did not drain")
	}
}

func TestBankHashDecorrelatesStreams(t *testing.T) {
	// Two streams separated by an arbitrary distance should land in the
	// same bank only ~1/16 of the time thanks to the XOR hash — without
	// it, any separation that preserves the raw bank bits collides on
	// every single row.
	m := NewAddressMapper(config.Default())
	same, total := 0, 0
	for _, sep := range []uint64{4096 * 7, 4096 * 33, 4096 * 129, 4096*513 + 4096} {
		for r := uint64(0); r < 64; r++ {
			a := m.Decode(r * 4096 * 16) // walk rows of one raw bank
			b := m.Decode(r*4096*16 + sep)
			total++
			if m.BankIndex(a) == m.BankIndex(b) && a.Channel == b.Channel {
				same++
			}
		}
	}
	if float64(same)/float64(total) > 0.35 {
		t.Fatalf("bank collisions %d/%d; hash not decorrelating", same, total)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	eng, ch, cfg := testChannel()
	submitRead(eng, ch, Location{Row: 7}, SubRankBoth)
	eng.RunUntilDone(1000)
	// Jump past a refresh window; the next access to the same row must
	// pay a full activate again (row closed by refresh).
	trefi := cfg.BusToCPU(cfg.DRAM.TREFI)
	at := trefi + 100
	var lat sim.Time
	eng.Schedule(at, func(sim.Time) {
		ch.Submit(&Request{Loc: Location{Row: 7}, SubRanks: SubRankBoth,
			Done: func(now sim.Time) { lat = now - at }})
	})
	eng.RunUntilDone(10000000)
	// Row hit would be 65; after refresh it must include tRCD again.
	if lat < 120 {
		t.Fatalf("post-refresh access latency %d, want a full activate", lat)
	}
}

func TestWriteDrainHysteresis(t *testing.T) {
	eng, ch, cfg := testChannel()
	// Saturate the write buffer beyond the high watermark along with a
	// steady read stream; all writes must eventually drain and reads
	// complete.
	reads := 0
	for i := 0; i < cfg.DRAM.WriteHighWater+10; i++ {
		ch.Submit(&Request{Write: true, Loc: Location{Row: i % 64, Col: i % 128}, SubRanks: SubRankBoth})
	}
	for i := 0; i < 20; i++ {
		ch.Submit(&Request{Loc: Location{Row: 100 + i}, SubRanks: SubRankBoth,
			Done: func(sim.Time) { reads++ }})
	}
	eng.RunUntilDone(10000000)
	if reads != 20 {
		t.Fatalf("reads completed = %d", reads)
	}
	if !ch.Drained() {
		t.Fatal("writes not drained")
	}
	if ch.Stats.Writes.Value() != uint64(cfg.DRAM.WriteHighWater+10) {
		t.Fatalf("writes = %d", ch.Stats.Writes.Value())
	}
}

func TestMixedSubRankRowStatesIndependent(t *testing.T) {
	// Opening a row on sub-rank 0 must not make sub-rank 1 hit.
	eng, ch, _ := testChannel()
	submitRead(eng, ch, Location{Row: 3}, SubRank0)
	eng.RunUntilDone(1000)
	at := eng.Now() + 1000
	var lat sim.Time
	eng.Schedule(at, func(sim.Time) {
		ch.Submit(&Request{Loc: Location{Row: 3}, SubRanks: SubRank1,
			Done: func(now sim.Time) { lat = now - at }})
	})
	eng.RunUntilDone(100000)
	if lat != 120 {
		t.Fatalf("other sub-rank latency %d, want cold 120", lat)
	}
}

func TestFAWLimitsActivationRate(t *testing.T) {
	// With tFAW enabled, a burst of row activations to one sub-rank is
	// throttled to four per window.
	cfg := config.Default()
	cfg.DRAM.TFAW = 28
	eng := sim.NewEngine()
	ch := NewChannel(eng, cfg, 0)
	var last sim.Time
	const n = 16 // 16 activations to 16 distinct banks/rows
	for i := 0; i < n; i++ {
		ch.Submit(&Request{Loc: Location{Group: i % 4, Bank: (i / 4) % 4, Row: 1 + i}, SubRanks: SubRankBoth,
			Done: func(now sim.Time) { last = now }})
	}
	eng.RunUntilDone(1_000_000)
	faw := cfg.BusToCPU(28)
	// 16 activations need at least 3 full windows beyond the first four.
	if last < 3*faw {
		t.Fatalf("16 activations finished at %d, want >= %d (tFAW-bound)", last, 3*faw)
	}

	// Without tFAW the same burst is bank-parallel and much faster.
	eng2 := sim.NewEngine()
	ch2 := NewChannel(eng2, config.Default(), 0)
	var last2 sim.Time
	for i := 0; i < n; i++ {
		ch2.Submit(&Request{Loc: Location{Group: i % 4, Bank: (i / 4) % 4, Row: 1 + i}, SubRanks: SubRankBoth,
			Done: func(now sim.Time) { last2 = now }})
	}
	eng2.RunUntilDone(1_000_000)
	if last2 >= last {
		t.Fatalf("tFAW off (%d) should be faster than on (%d)", last2, last)
	}
}

func TestFAWDefaultDisabled(t *testing.T) {
	if config.Default().DRAM.TFAW != 0 {
		t.Fatal("Table II does not specify tFAW; the default must disable it")
	}
}

// Property: the per-sub-rank data bus is never overlapped — total busy
// time cannot exceed wall-clock time — across random traffic mixes.
func TestBusNeverOverlapped(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		eng := sim.NewEngine()
		ch := NewChannel(eng, config.Default(), 0)
		rng := rand.New(rand.NewSource(seed))
		var last sim.Time
		for i := 0; i < 500; i++ {
			mask := SubRankMask(rng.Intn(3) + 1)
			ch.Submit(&Request{
				Write:    rng.Intn(3) == 0,
				Loc:      Location{Group: rng.Intn(4), Bank: rng.Intn(4), Row: rng.Intn(64), Col: rng.Intn(128)},
				SubRanks: mask,
				Done:     func(now sim.Time) { last = now },
			})
		}
		if !eng.RunUntilDone(10_000_000) {
			t.Fatal("did not drain")
		}
		for s := 0; s < 2; s++ {
			if ch.Stats.BusBusy[s] > last {
				t.Fatalf("seed %d: sub-rank %d busy %d cycles in %d wall cycles (overlap!)",
					seed, s, ch.Stats.BusBusy[s], last)
			}
		}
	}
}

// Property: under a saturating row-hit stream the bus approaches full
// utilization — the scheduler does not leave burst slots idle.
func TestStreamBusUtilizationHigh(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChannel(eng, config.Default(), 0)
	var last sim.Time
	const n = 512
	for i := 0; i < n; i++ {
		ch.Submit(&Request{Loc: Location{Row: 1 + i/128, Col: i % 128}, SubRanks: SubRankBoth,
			Done: func(now sim.Time) { last = now }})
	}
	eng.RunUntilDone(10_000_000)
	util := float64(ch.Stats.BusBusy[0]) / float64(last)
	if util < 0.85 {
		t.Fatalf("stream bus utilization %.2f, want > 0.85", util)
	}
}

func TestFCFSIgnoresRowHits(t *testing.T) {
	cfg := config.Default()
	cfg.DRAM.SchedFCFS = true
	eng := sim.NewEngine()
	ch := NewChannel(eng, cfg, 0)
	// Open row 1, then queue an older miss and a younger hit: FCFS must
	// serve the older miss first.
	ch.Submit(&Request{Loc: Location{Row: 1}, SubRanks: SubRankBoth})
	eng.RunUntilDone(1000)
	at := eng.Now() + 500
	var missDone, hitDone sim.Time
	eng.Schedule(at, func(sim.Time) {
		ch.Submit(&Request{Loc: Location{Row: 9}, SubRanks: SubRankBoth,
			Done: func(now sim.Time) { missDone = now }})
		ch.Submit(&Request{Loc: Location{Row: 1, Col: 3}, SubRanks: SubRankBoth,
			Done: func(now sim.Time) { hitDone = now }})
	})
	eng.RunUntilDone(100000)
	if missDone >= hitDone {
		t.Fatalf("FCFS must serve the older miss first (miss=%d hit=%d)", missDone, hitDone)
	}
}

func TestClosedPagePolicyClosesRows(t *testing.T) {
	cfg := config.Default()
	cfg.DRAM.ClosedPage = true
	eng := sim.NewEngine()
	ch := NewChannel(eng, cfg, 0)
	ch.Submit(&Request{Loc: Location{Row: 5, Col: 0}, SubRanks: SubRankBoth})
	eng.RunUntilDone(10000)
	at := eng.Now() + 1000
	var lat sim.Time
	eng.Schedule(at, func(sim.Time) {
		ch.Submit(&Request{Loc: Location{Row: 5, Col: 1}, SubRanks: SubRankBoth,
			Done: func(now sim.Time) { lat = now - at }})
	})
	eng.RunUntilDone(100000)
	// Under closed-page the second access re-activates: tRCD+tCAS+burst.
	if lat != 120 {
		t.Fatalf("closed-page same-row latency = %d, want 120", lat)
	}
}
