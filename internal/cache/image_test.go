package cache

import (
	"math/rand"
	"slices"
	"testing"

	"attache/internal/sim"
)

// TestImageRoundTrip: a cache loaded from another's image hits, misses,
// evicts and writes back exactly as the original does on a randomised
// access tail — with full sets and with sets the warm-up left part empty —
// and its own image is the one it was loaded from.
func TestImageRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lines int // distinct lines the history touches; the cache holds 256
	}{{"part-empty", 150}, {"full", 2000}} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			engA, backA, a := newLLC(256*64, 4)
			access := func(eng *sim.Engine, c *LLC, addr uint64, store bool) {
				if store {
					c.Write(addr)
				} else {
					c.Read(addr, func(sim.Time) {})
				}
				eng.RunUntilDone(1000)
			}
			// A history of prefills and timed accesses, so use stamps come
			// from every path that sets them.
			for i := 0; i < 3000; i++ {
				addr, store := uint64(r.Intn(tc.lines)), r.Intn(3) == 0
				if i%2 == 0 {
					a.Prefill(addr, store)
				} else {
					access(engA, a, addr, store)
				}
			}
			img := a.Image()

			engB, backB, b := newLLC(256*64, 4)
			b.Load(img)
			if !slices.Equal(b.Image().Lines, img.Lines) {
				t.Fatal("the loaded cache's image is not the one it was loaded from")
			}
			backA.reads, backA.writes = nil, nil
			statsA := a.Stats
			for i := 0; i < 5000; i++ {
				addr, store := uint64(r.Intn(tc.lines+500)), r.Intn(3) == 0
				if (a.find(addr) != nil) != (b.find(addr) != nil) {
					t.Fatalf("access %d: line %d resident in one cache only", i, addr)
				}
				access(engA, a, addr, store)
				access(engB, b, addr, store)
			}
			if !slices.Equal(backA.reads, backB.reads) {
				t.Fatal("the loaded cache sent different fills to memory")
			}
			if !slices.Equal(backA.writes, backB.writes) {
				t.Fatal("the loaded cache chose different victims: write-back sequence differs")
			}
			if got, want := b.Stats.Hits.Value(), a.Stats.Hits.Value()-statsA.Hits.Value(); got != want {
				t.Fatalf("hits on the tail: loaded %d, original %d", got, want)
			}
			if !slices.Equal(a.Image().Lines, b.Image().Lines) {
				t.Fatal("after the tail the two caches' images differ")
			}
		})
	}
}

func TestLoadRejectsOtherGeometry(t *testing.T) {
	_, _, a := newLLC(256*64, 4)
	_, _, b := newLLC(256*64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("loading a 4-way image into an 8-way cache did not panic")
		}
	}()
	b.Load(a.Image())
}
