package mdcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"lru": LRU, "drrip": DRRIP, "ship": SHiP} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Error("expected error for unknown policy")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{LRU: "lru", DRRIP: "drrip", SHiP: "ship", Policy(9): "Policy(9)"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", uint8(p), p.String())
		}
	}
}

func TestCapacityGeometry(t *testing.T) {
	c := New(1<<20, 16, LRU)
	if c.sets*c.ways != 1<<20/64 {
		t.Fatalf("capacity = %d lines, want %d", c.sets*c.ways, 1<<20/64)
	}
	if c.sets != 1024 || c.ways != 16 {
		t.Fatalf("geometry = %dx%d, want 1024x16", c.sets, c.ways)
	}
}

func TestHitAfterInstall(t *testing.T) {
	c := New(64<<10, 16, LRU)
	if got := c.Access(42, false); got.Hit {
		t.Fatal("first access should miss")
	}
	if got := c.Access(42, false); !got.Hit {
		t.Fatal("second access should hit")
	}
	if c.Stats.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", c.Stats.HitRate())
	}
}

func TestDirtyEvictionGeneratesWriteback(t *testing.T) {
	c := New(64*4, 4, LRU) // one set, 4 ways
	c.Access(0, true)      // dirty
	for k := uint64(1); k < 4; k++ {
		c.Access(k, false)
	}
	res := c.Access(4, false) // evicts key 0 (LRU, dirty)
	if !res.EvictedDirty {
		t.Fatal("expected dirty eviction")
	}
	if c.Stats.DirtyEvicts.Value() != 1 {
		t.Fatal("dirty evict counter not charged")
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := New(64*2, 2, LRU)
	c.Access(0, false)
	c.Access(1, false)
	res := c.Access(2, false)
	if res.EvictedDirty {
		t.Fatal("clean eviction should not write back")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := New(64*2, 2, LRU)
	c.Access(0, false) // clean install
	c.Access(0, true)  // write hit -> dirty
	c.Access(1, false)
	if res := c.Access(2, false); !res.EvictedDirty {
		t.Fatal("write-hit line should evict dirty")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := New(64*4, 4, LRU)
	for k := uint64(0); k < 4; k++ {
		c.Access(k, false)
	}
	c.Access(0, false) // refresh 0
	c.Access(4, false) // evicts 1
	if !c.Contains(0) || c.Contains(1) {
		t.Fatal("LRU evicted the wrong line")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(64*2, 2, LRU)
	c.Access(0, false)
	c.Access(1, false)
	for i := 0; i < 10; i++ {
		c.Contains(0) // must not refresh LRU position
	}
	c.Access(2, false) // should still evict 0 (oldest by Access)
	if c.Contains(0) {
		t.Fatal("Contains perturbed replacement state")
	}
}

func TestAllPoliciesBasicCaching(t *testing.T) {
	for _, p := range []Policy{LRU, DRRIP, SHiP} {
		c := New(16<<10, 16, p)
		// A small working set must be fully cached under any policy.
		for pass := 0; pass < 4; pass++ {
			for k := uint64(0); k < 64; k++ {
				c.Access(k, false)
			}
		}
		hr := c.Stats.HitRate()
		if hr < 0.70 {
			t.Errorf("%v: hit rate %v on cache-resident set, want > 0.70", p, hr)
		}
	}
}

func TestRRIPPoliciesSurviveScan(t *testing.T) {
	// A classic RRIP advantage: a resident working set mixed with a
	// one-shot scan. DRRIP/SHiP should protect the working set at least
	// as well as random-ish insertion; this is a smoke check that the
	// policies are functional, not a performance proof.
	for _, p := range []Policy{DRRIP, SHiP} {
		c := New(8<<10, 8, p) // 128 lines
		rng := rand.New(rand.NewSource(4))
		hits, total := 0, 0
		for i := 0; i < 20000; i++ {
			var key uint64
			if rng.Intn(2) == 0 {
				key = uint64(rng.Intn(64)) // working set
			} else {
				key = 1000 + uint64(i) // scan, never reused
			}
			res := c.Access(key, false)
			if key < 64 {
				total++
				if res.Hit {
					hits++
				}
			}
		}
		if total == 0 || float64(hits)/float64(total) < 0.5 {
			t.Errorf("%v: working-set hit rate %.2f under scan, want > 0.5", p, float64(hits)/float64(total))
		}
	}
}

func TestInstallsEqualMisses(t *testing.T) {
	c := New(4<<10, 4, LRU)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		c.Access(uint64(rng.Intn(500)), rng.Intn(4) == 0)
	}
	misses := c.Stats.Accesses.Value() - c.Stats.Hits.Value()
	if c.Stats.Installs.Value() != misses {
		t.Fatalf("installs = %d, misses = %d", c.Stats.Installs.Value(), misses)
	}
	if c.Stats.DirtyEvicts.Value() > c.Stats.Installs.Value() {
		t.Fatal("more dirty evictions than installs")
	}
}

func TestNewPanicsOnZeroWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1024, 0, LRU)
}

// Property: immediately after any access, the key is cached; hit rate is
// within [0,1]; and a second access to the same key hits, for every policy.
func TestAccessThenHitProperty(t *testing.T) {
	f := func(keys []uint64, policyByte uint8) bool {
		p := Policy(policyByte % 3)
		c := New(32<<10, 8, p)
		for _, k := range keys {
			c.Access(k, false)
			if !c.Contains(k) {
				return false
			}
			if res := c.Access(k, false); !res.Hit {
				return false
			}
		}
		hr := c.Stats.HitRate()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperHitRateBallpark drives the cache with a page-local metadata
// stream like the paper's workloads produce and checks the 1MB cache
// reaches a high hit rate (the paper reports 77% on real traces).
func TestPaperHitRateBallpark(t *testing.T) {
	c := New(1<<20, 16, LRU)
	rng := rand.New(rand.NewSource(10))
	// Metadata keys cover rows; reuse distance modest.
	hot := make([]uint64, 4096)
	for i := range hot {
		hot[i] = uint64(i)
	}
	for i := 0; i < 200000; i++ {
		var key uint64
		if rng.Float64() < 0.85 {
			key = hot[rng.Intn(len(hot))]
		} else {
			key = uint64(100000 + rng.Intn(1000000))
		}
		c.Access(key, false)
	}
	if hr := c.Stats.HitRate(); hr < 0.7 || hr > 0.95 {
		t.Fatalf("hit rate = %.3f, want 0.70..0.95", hr)
	}
}

// Contains reports whether key is cached, without touching replacement
// state.
func (c *Cache) Contains(key uint64) bool {
	for _, l := range c.set(key) {
		if l.valid && l.tag == key {
			return true
		}
	}
	return false
}
