package cache

import (
	"testing"

	"attache/internal/sim"
)

// fakeBackend records traffic and completes reads after a fixed delay.
type fakeBackend struct {
	eng    *sim.Engine
	delay  sim.Time
	reads  []uint64
	writes []uint64
}

func (f *fakeBackend) Read(addr uint64, done func(sim.Time)) {
	f.reads = append(f.reads, addr)
	f.eng.ScheduleAfter(f.delay, done)
}

func (f *fakeBackend) Write(addr uint64) { f.writes = append(f.writes, addr) }

func newLLC(size int64, ways int) (*sim.Engine, *fakeBackend, *LLC) {
	eng := sim.NewEngine()
	b := &fakeBackend{eng: eng, delay: 100}
	return eng, b, New(eng, b, size, ways, 20)
}

func TestReadMissFillsThenHits(t *testing.T) {
	eng, b, c := newLLC(8<<10, 8)
	var first, second sim.Time
	c.Read(7, func(now sim.Time) { first = now })
	eng.RunUntilDone(100)
	if first != 120 { // 20 lookup + 100 memory
		t.Fatalf("miss completed at %d, want 120", first)
	}
	c.Read(7, func(now sim.Time) { second = now })
	eng.RunUntilDone(100)
	if second != 140 { // 120 + 20 hit latency
		t.Fatalf("hit completed at %d, want 140", second)
	}
	if len(b.reads) != 1 {
		t.Fatalf("backend reads = %d, want 1", len(b.reads))
	}
	if c.Stats.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.Stats.HitRate())
	}
}

func TestMissCoalescing(t *testing.T) {
	eng, b, c := newLLC(8<<10, 8)
	done := 0
	for i := 0; i < 5; i++ {
		c.Read(9, func(sim.Time) { done++ })
	}
	eng.RunUntilDone(1000)
	if done != 5 {
		t.Fatalf("waiters completed = %d, want 5", done)
	}
	if len(b.reads) != 1 {
		t.Fatalf("backend reads = %d, want 1 (coalesced)", len(b.reads))
	}
	if c.Stats.Coalesced.Value() != 4 {
		t.Fatalf("coalesced = %d, want 4", c.Stats.Coalesced.Value())
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	eng, b, c := newLLC(64*2, 2) // one set, two ways
	c.Write(1)                   // miss -> RFO fill, installs dirty
	eng.RunUntilDone(100)
	if len(b.reads) != 1 {
		t.Fatalf("write-allocate should fetch the line, reads=%d", len(b.reads))
	}
	c.Read(2, func(sim.Time) {})
	c.Read(3, func(sim.Time) {}) // evicts line 1 (dirty) on fill
	eng.RunUntilDone(1000)
	if len(b.writes) != 1 || b.writes[0] != 1 {
		t.Fatalf("expected writeback of line 1, got %v", b.writes)
	}
	if c.Stats.Writebacks.Value() != 1 {
		t.Fatal("writeback counter not charged")
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	eng, b, c := newLLC(64*2, 2)
	for addr := uint64(0); addr < 3; addr++ {
		c.Read(addr, func(sim.Time) {})
	}
	eng.RunUntilDone(1000)
	if len(b.writes) != 0 {
		t.Fatalf("clean evictions must not write back, got %v", b.writes)
	}
}

func TestStoreMergesIntoInflightFill(t *testing.T) {
	eng, b, c := newLLC(64*4, 4)
	c.Read(5, func(sim.Time) {})
	c.Write(5) // merges into the in-flight fill, marks dirty
	eng.RunUntilDone(1000)
	if len(b.reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(b.reads))
	}
	// Force eviction of line 5: it must write back (dirty via merge).
	for addr := uint64(16); addr < 20; addr++ {
		c.Read(addr, func(sim.Time) {})
	}
	eng.RunUntilDone(1000)
	if len(b.writes) != 1 || b.writes[0] != 5 {
		t.Fatalf("expected dirty writeback of 5, got %v", b.writes)
	}
}

func TestLRUKeepsHotLines(t *testing.T) {
	eng, _, c := newLLC(64*4, 4)
	for addr := uint64(0); addr < 4; addr++ {
		c.Read(addr*uint64(c.sets), func(sim.Time) {})
	}
	eng.RunUntilDone(1000)
	hot := uint64(0)
	c.Read(hot, func(sim.Time) {}) // refresh
	eng.RunUntilDone(100)
	c.Read(9*uint64(c.sets), func(sim.Time) {}) // evicts someone else
	eng.RunUntilDone(1000)
	hits := c.Stats.Hits.Value()
	c.Read(hot, func(sim.Time) {})
	eng.RunUntilDone(1000)
	if c.Stats.Hits.Value() != hits+1 {
		t.Fatal("hot line was evicted")
	}
}

func TestOutstandingMissesDrain(t *testing.T) {
	eng, _, c := newLLC(8<<10, 8)
	for addr := uint64(0); addr < 10; addr++ {
		c.Read(addr, func(sim.Time) {})
	}
	if len(c.mshr) != 10 {
		t.Fatalf("outstanding = %d, want 10", len(c.mshr))
	}
	eng.RunUntilDone(10000)
	if len(c.mshr) != 0 {
		t.Fatal("misses did not drain")
	}
}

func TestHighMissRateOnHugeFootprint(t *testing.T) {
	eng, _, c := newLLC(8<<10, 8) // 128 lines
	for addr := uint64(0); addr < 10000; addr++ {
		c.Read(addr, func(sim.Time) {})
		eng.RunUntilDone(1000)
	}
	if hr := c.Stats.HitRate(); hr > 0.05 {
		t.Fatalf("hit rate = %v on streaming footprint, want ~0", hr)
	}
}

func TestNewPanicsOnZeroWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := sim.NewEngine()
	New(eng, &fakeBackend{eng: eng}, 1024, 0, 20)
}

func TestPrefillWarmsWithoutTraffic(t *testing.T) {
	eng, b, c := newLLC(8<<10, 8)
	for addr := uint64(0); addr < 64; addr++ {
		c.Prefill(addr, addr%3 == 0)
	}
	if len(b.reads) != 0 || len(b.writes) != 0 {
		t.Fatal("prefill generated backend traffic")
	}
	if c.Stats.Accesses.Value() != 0 {
		t.Fatal("prefill must not count as accesses")
	}
	// Prefilled lines hit.
	hit := false
	c.Read(5, func(sim.Time) { hit = true })
	eng.RunUntilDone(100)
	if !hit || c.Stats.Hits.Value() != 1 {
		t.Fatal("prefilled line missed")
	}
	// Dirty prefill writes back on eviction.
	for addr := uint64(1000); addr < 1000+64; addr++ {
		c.Prefill(addr, false)
	}
	for addr := uint64(2000); addr < 2000+128; addr++ {
		c.Read(addr, func(sim.Time) {})
	}
	eng.RunUntilDone(100000)
	if len(b.writes) == 0 {
		t.Fatal("dirty prefilled lines should write back when evicted")
	}
}

func TestPrefillDirtyMergesExisting(t *testing.T) {
	_, _, c := newLLC(8<<10, 8)
	c.Prefill(7, false)
	c.Prefill(7, true) // upgrade to dirty
	c.Prefill(7, false)
	// The line must remain dirty (dirty bits never silently clear).
	set := c.set(7)
	for i := range set {
		if set[i].valid && set[i].tag == 7 && !set[i].dirty {
			t.Fatal("dirty bit lost on re-prefill")
		}
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	eng, b, c := newLLC(64<<10, 8)
	c.EnableNextLinePrefetch(true)
	c.Read(100, func(sim.Time) {})
	eng.RunUntilDone(10000)
	if len(b.reads) != 2 {
		t.Fatalf("backend reads = %d, want 2 (demand + prefetch)", len(b.reads))
	}
	if c.Stats.Prefetches.Value() != 1 {
		t.Fatalf("prefetches = %d", c.Stats.Prefetches.Value())
	}
	// The prefetched line hits without further traffic.
	hits := c.Stats.Hits.Value()
	c.Read(101, func(sim.Time) {})
	eng.RunUntilDone(10000)
	if c.Stats.Hits.Value() != hits+1 {
		t.Fatal("prefetched line did not hit")
	}
	// 101's demand hit triggers no prefetch (hits don't prefetch here),
	// and re-reading 100 stays silent.
	reads := len(b.reads)
	c.Read(100, func(sim.Time) {})
	eng.RunUntilDone(10000)
	if len(b.reads) != reads {
		t.Fatal("resident line generated traffic")
	}
}

func TestPrefetcherOffByDefault(t *testing.T) {
	eng, b, c := newLLC(64<<10, 8)
	c.Read(100, func(sim.Time) {})
	eng.RunUntilDone(10000)
	if len(b.reads) != 1 || c.Stats.Prefetches.Value() != 0 {
		t.Fatal("prefetcher must be off by default")
	}
}

func TestPrefetchDoesNotDuplicateInflight(t *testing.T) {
	eng, b, c := newLLC(64<<10, 8)
	c.EnableNextLinePrefetch(true)
	c.Read(200, func(sim.Time) {}) // prefetches 201
	c.Read(201, func(sim.Time) {}) // must coalesce into the prefetch
	eng.RunUntilDone(10000)
	if len(b.reads) != 3 { // 200, 201(prefetch), 202(prefetch from 201's demand miss? no: 201 coalesced, not a miss fill)
		// 201's demand access coalesces; its own prefetch of 202 is not
		// issued because coalesced accesses skip the miss path... verify:
		t.Logf("reads: %v", b.reads)
	}
	seen := map[uint64]int{}
	for _, a := range b.reads {
		seen[a]++
	}
	if seen[201] != 1 {
		t.Fatalf("line 201 fetched %d times, want 1", seen[201])
	}
}

// TestPrefetchEntryRecyclesCleanly: a prefetch fill has no waiters; its
// entry must come back to the freelist empty and serve a later demand
// miss — and a waiter that re-enters the LLC from its own fill must get a
// different entry from the one still being retired.
func TestPrefetchEntryRecyclesCleanly(t *testing.T) {
	eng, b, c := newLLC(64<<10, 8)
	c.EnableNextLinePrefetch(true)
	c.Read(100, func(sim.Time) {}) // demand 100 + prefetch 101
	eng.RunUntilDone(10000)
	if len(c.mshr) != 0 || len(c.mshrFree) != 2 {
		t.Fatalf("after the fills: %d in flight, %d recycled, want 0 and 2", len(c.mshr), len(c.mshrFree))
	}
	for _, e := range c.mshrFree {
		if len(e.waiters) != 0 || e.dirty {
			t.Fatalf("recycled entry for %d not clean: %d waiters, dirty=%v", e.addr, len(e.waiters), e.dirty)
		}
	}

	c.EnableNextLinePrefetch(false)
	var order []uint64
	c.Read(5000, func(sim.Time) {
		order = append(order, 5000)
		c.Read(6000, func(sim.Time) { order = append(order, 6000) })
	})
	eng.RunUntilDone(10000)
	if len(order) != 2 || order[0] != 5000 || order[1] != 6000 {
		t.Fatalf("completions = %v, want [5000 6000]", order)
	}
	if got := b.reads[len(b.reads)-2:]; got[0] != 5000 || got[1] != 6000 {
		t.Fatalf("backend saw %v, want reads of 5000 then 6000 through recycled entries", got)
	}
	if len(c.mshrFree) != 2 {
		t.Fatalf("%d entries pooled, want the same 2 reused", len(c.mshrFree))
	}
}
