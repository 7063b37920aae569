package mdcache

import "testing"

// keyForSet returns the n-th distinct key mapping to set s of c.
func keyForSet(c *Cache, s int, n int) uint64 {
	return uint64(s) + uint64(n)*uint64(c.sets)
}

// TestSetSaturationAllPolicies drives one set far past its associativity
// under every policy: the set must stay exactly full (never overflow its
// ways, never evict to emptiness), every miss must install, and the RRIP
// aging loop must always terminate with a victim.
func TestSetSaturationAllPolicies(t *testing.T) {
	for _, pol := range []Policy{LRU, DRRIP, SHiP} {
		t.Run(pol.String(), func(t *testing.T) {
			c := New(64*LineSize, 4, pol) // 16 sets, 4 ways
			const rounds = 64
			for n := 0; n < rounds; n++ {
				c.Access(keyForSet(c, 3, n), n%2 == 0)
			}
			resident := 0
			for n := 0; n < rounds; n++ {
				if c.Contains(keyForSet(c, 3, n)) {
					resident++
				}
			}
			if resident != c.ways {
				t.Fatalf("saturated set holds %d lines, want exactly %d", resident, c.ways)
			}
			if got := c.Stats.Installs.Value(); got != rounds {
				t.Fatalf("installs = %d, want %d (every distinct key misses)", got, rounds)
			}
			// The most recent insertions must be the survivors under LRU.
			if pol == LRU {
				for n := rounds - c.ways; n < rounds; n++ {
					if !c.Contains(keyForSet(c, 3, n)) {
						t.Fatalf("LRU evicted a most-recent line (n=%d)", n)
					}
				}
			}
		})
	}
}

// TestDirtyEvictionAccounting checks the writeback ledger under
// saturation: every dirty line displaced from a full set must surface as
// exactly one EvictedDirty result carrying the right victim key, and the
// DirtyEvicts counter must agree with the sum of results.
func TestDirtyEvictionAccounting(t *testing.T) {
	for _, pol := range []Policy{LRU, DRRIP, SHiP} {
		t.Run(pol.String(), func(t *testing.T) {
			c := New(16*LineSize, 2, pol) // 8 sets, 2 ways
			dirty := map[uint64]bool{}
			var writebacks uint64
			const rounds = 40
			for n := 0; n < rounds; n++ {
				key := keyForSet(c, 5, n)
				write := n%3 != 2 // mixed dirty/clean installs
				res := c.Access(key, write)
				if res.Hit {
					t.Fatalf("key %d unexpectedly hit", key)
				}
				if res.EvictedDirty {
					writebacks++
					if !dirty[res.VictimKey] {
						t.Fatalf("writeback for key %d which was never dirty", res.VictimKey)
					}
					delete(dirty, res.VictimKey)
				}
				if write {
					dirty[key] = true
				}
			}
			if got := c.Stats.DirtyEvicts.Value(); got != writebacks {
				t.Fatalf("DirtyEvicts counter %d != observed writebacks %d", got, writebacks)
			}
			// Conservation: every dirty line is either still resident or
			// was written back.
			for key := range dirty {
				if !c.Contains(key) {
					t.Fatalf("dirty key %d vanished without a writeback", key)
				}
			}
		})
	}
}

// TestWriteHitDirtiesExistingLine ensures a clean install followed by a
// write hit still produces a writeback on eviction (dirtiness must not be
// an install-time-only property).
func TestWriteHitDirtiesExistingLine(t *testing.T) {
	c := New(2*LineSize, 2, LRU) // 1 set, 2 ways
	c.Access(0, false)           // clean install
	c.Access(0, true)            // write hit dirties it
	c.Access(1, false)
	// Next install evicts key 0 (LRU): must write back.
	res := c.Access(2, false)
	if !res.EvictedDirty || res.VictimKey != 0 {
		t.Fatalf("eviction of write-hit line: got %+v, want dirty victim 0", res)
	}
}

// TestSHiPSignatureAliasing exercises the signature history table when
// two disjoint key streams alias to the same SHCT entry semantics: a
// stream whose lines die without reuse drags its signatures' counters to
// zero, so later installs from those signatures insert at distant RRPV
// and are evicted before lines with reuse history. The test asserts the
// observable consequence: under a mixed stream, the reused working set
// keeps hitting while the dead stream never pollutes it out of the cache.
func TestSHiPSignatureAliasing(t *testing.T) {
	c := New(32*LineSize, 4, SHiP) // 8 sets, 4 ways

	// Teach SHCT: a small working set with strong reuse...
	hot := []uint64{keyForSet(c, 2, 0), keyForSet(c, 2, 1), keyForSet(c, 2, 2)}
	for round := 0; round < 16; round++ {
		for _, k := range hot {
			c.Access(k, false)
		}
	}
	// ...and a long dead stream through the same set, never reused.
	for n := 10; n < 200; n++ {
		c.Access(keyForSet(c, 2, n), false)
		// Hot set keeps its reuse pattern alive between dead installs.
		for _, k := range hot {
			c.Access(k, false)
		}
	}
	hits, accesses := c.Stats.Hits.Value(), c.Stats.Accesses.Value()
	if hits == 0 || accesses == 0 {
		t.Fatal("test produced no traffic")
	}
	// Every hot access after warmup should hit: the dead stream inserts
	// at distant RRPV and is evicted first.
	for _, k := range hot {
		if !c.Contains(k) {
			t.Fatalf("hot key %d evicted by dead stream", k)
		}
	}
	if rate := c.Stats.HitRate(); rate < 0.70 {
		t.Fatalf("hit rate %.2f: dead stream polluted the reused working set", rate)
	}
}

// TestSHiPDeadStreamDemotesSignature checks the SHCT learning mechanism
// directly: after a no-reuse stream, new installs from the same
// signatures must be inserted at rrpvMax (predicted dead) and therefore
// be the first victims, protecting a fresh SRRIP-inserted line.
func TestSHiPDeadStreamDemotesSignature(t *testing.T) {
	c := New(8*LineSize, 4, SHiP) // 2 sets, 4 ways
	set := 1
	// Run enough no-reuse installs that every touched signature's counter
	// decays to zero (counters start at 1; one dead eviction suffices).
	for n := 0; n < 256; n++ {
		c.Access(keyForSet(c, set, n), false)
	}
	// The set now holds 4 predicted-dead lines. A new install from a
	// signature with default history must stay resident through the next
	// few dead installs: dead-predicted lines (rrpv 3) are victimized
	// before it (rrpv 2).
	probe := keyForSet(c, set, 1000)
	c.Access(probe, false)
	c.Access(probe, false) // reuse promotes it to rrpv 0
	for n := 300; n < 303; n++ {
		c.Access(keyForSet(c, set, n), false)
	}
	if !c.Contains(probe) {
		t.Fatal("reused line evicted before predicted-dead lines")
	}
}

// TestRRIPAgingTerminates saturates a set with maximally-promoted lines
// (rrpv 0 everywhere) and forces a victim choice: the aging loop must
// terminate and pick a way rather than spin.
func TestRRIPAgingTerminates(t *testing.T) {
	for _, pol := range []Policy{DRRIP, SHiP} {
		t.Run(pol.String(), func(t *testing.T) {
			c := New(4*LineSize, 4, pol) // 1 set, 4 ways
			for n := 0; n < 4; n++ {
				k := keyForSet(c, 0, n)
				c.Access(k, false)
				c.Access(k, false) // hit: rrpv -> 0
			}
			res := c.Access(keyForSet(c, 0, 99), false) // must age 0 -> 3 and evict
			if res.Hit {
				t.Fatal("install reported as hit")
			}
			resident := 0
			for n := 0; n < 100; n++ {
				if c.Contains(keyForSet(c, 0, n)) {
					resident++
				}
			}
			if resident != 4 {
				t.Fatalf("set holds %d lines after forced aging, want 4", resident)
			}
		})
	}
}

// TestDuelingLeaderSetsCoverBothPolicies sanity-checks the DRRIP
// set-dueling plumbing on a cache large enough to have both leader
// kinds: misses in leader sets move PSEL in opposite directions.
func TestDuelingLeaderSetsCoverBothPolicies(t *testing.T) {
	c := New(64*32*LineSize, 4, DRRIP) // 512 sets: 16 SRRIP + 16 BRRIP leaders
	var srrip, brrip, followers int
	for s := 0; s < c.sets; s++ {
		switch c.leaderKind(uint64(s)) {
		case 0:
			srrip++
		case 1:
			brrip++
		default:
			followers++
		}
	}
	if srrip == 0 || brrip == 0 || followers == 0 {
		t.Fatalf("leader distribution srrip=%d brrip=%d followers=%d: dueling cannot work", srrip, brrip, followers)
	}

	before := c.psel
	c.Access(uint64(0), false) // SRRIP leader set 0 miss: psel++
	if c.psel != before+1 {
		t.Fatalf("SRRIP leader miss moved psel %d -> %d, want +1", before, c.psel)
	}
	before = c.psel
	c.Access(uint64(duelPeriod/2), false) // BRRIP leader miss: psel--
	if c.psel != before-1 {
		t.Fatalf("BRRIP leader miss moved psel %d -> %d, want -1", before, c.psel)
	}
}

// TestTinyCacheDegenerateGeometry covers the sets-rounding edge: a cache
// smaller than one way's worth of lines still works as a 1-set cache.
func TestTinyCacheDegenerateGeometry(t *testing.T) {
	for _, pol := range []Policy{LRU, DRRIP, SHiP} {
		c := New(LineSize, 8, pol) // fewer lines than ways
		if c.sets != 1 {
			t.Fatalf("%v: sets = %d, want 1", pol, c.sets)
		}
		for n := uint64(0); n < 20; n++ {
			c.Access(n, true)
		}
		if c.Stats.Accesses.Value() != 20 {
			t.Fatalf("%v: lost accesses", pol)
		}
	}
}
