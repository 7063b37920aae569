package sim

import "testing"

// BenchmarkScheduleStep measures the kernel's hot loop, allocation-free
// once the node arena has grown to the most events ever pending.
//
// burst schedules sixteen events over five cycles and drains them.
//
// sweep-mix is the kernel rung of the simulator ladder: one op is one event
// that fires and schedules its successor, with twenty events pending and
// the successor's distance drawn from what a sim-sweep pass schedules
// (DESIGN.md §5) — nine in ten under 32 cycles, one in 800 past 1 024, and
// two of every 4 096 at or past the horizon, through the overflow heap.
func BenchmarkScheduleStep(b *testing.B) {
	b.Run("burst", func(b *testing.B) {
		e := NewEngine()
		var fired int
		ev := func(Time) { fired++ }
		// Grow the arena first so steady-state allocs are measured.
		for i := 0; i < 64; i++ {
			e.Schedule(Time(i), ev)
		}
		for e.Step() {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 16; j++ {
				e.Schedule(e.Now()+Time(j%5), ev)
			}
			for e.Step() {
			}
		}
		_ = fired
	})
	b.Run("sweep-mix", func(b *testing.B) {
		deltas := sweepMix()
		e := NewEngine()
		var i uint
		var ev Event
		ev = func(now Time) {
			e.Schedule(now+deltas[i%uint(len(deltas))], ev) // a constant length: a mask, not a division
			i++
		}
		for j := 0; j < 20; j++ {
			e.Schedule(Time(j), ev)
		}
		for j := 0; j < 2*len(deltas); j++ { // the heap's backing array grows here
			e.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			e.Step()
		}
	})
}

// sweepMix is 4 096 schedule distances in the proportions measured over two
// passes of the sim-sweep cell mix (5.24 M schedules), in a fixed shuffle.
func sweepMix() *[4096]Time {
	x := uint32(42)
	draw := func(n Time) Time {
		x = x*1664525 + 1013904223
		return Time(x>>8) % n
	}
	var deltas [4096]Time
	n := 0
	for _, bucket := range []struct {
		count  int
		lo, hi Time // [lo, hi)
	}{
		{455, 0, 1},               // 11.1 %
		{518, 1, 2},               // 12.7 %
		{321, 2, 8},               //  7.8 %
		{2363, 8, 32},             // 57.7 %
		{333, 32, 256},            //  8.1 %
		{99, 256, 1024},           //  2.4 %
		{5, 1024, horizon},        //  0.13 %
		{2, horizon, 2 * horizon}, // none in a sweep; here so the rung covers the overflow path
	} {
		for i := 0; i < bucket.count; i++ { // the counts sum to len(deltas)
			deltas[n] = bucket.lo + draw(bucket.hi-bucket.lo)
			n++
		}
	}
	for i := len(deltas) - 1; i > 0; i-- {
		j := draw(Time(i + 1))
		deltas[i], deltas[j] = deltas[j], deltas[i]
	}
	return &deltas
}

// BenchmarkScheduleOutOfOrder inserts 64 cycles in descending order and
// drains them: every schedule opens a new slot below the lowest occupied
// one, and every step after a cycle's one event scans the bitmap for the next.
func BenchmarkScheduleOutOfOrder(b *testing.B) {
	e := NewEngine()
	nop := func(Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 63; j >= 0; j-- {
			e.Schedule(base+Time(j), nop)
		}
		for e.Step() {
		}
	}
}
