package copr

import (
	"testing"
	"testing/quick"
)

func TestAssocBasic(t *testing.T) {
	a := newAssoc[int](16, 4)
	if a.sets*a.ways != 16 {
		t.Fatalf("capacity = %d, want 16", a.sets*a.ways)
	}
	a.insert(1, 100)
	a.insert(2, 200)
	if v, ok := a.lookup(1); !ok || v != 100 {
		t.Fatalf("lookup(1) = %d,%v", v, ok)
	}
	if _, ok := a.lookup(3); ok {
		t.Fatal("lookup(3) should miss")
	}
}

func TestAssocUpdateInPlace(t *testing.T) {
	a := newAssoc[int](16, 4)
	a.insert(5, 1)
	a.insert(5, 2)
	if v, _ := a.lookup(5); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	// Updating must not consume a second way.
	count := 0
	for _, e := range a.entries {
		if e.valid {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("valid entries = %d, want 1", count)
	}
}

func TestAssocLRUEviction(t *testing.T) {
	a := newAssoc[int](4, 4) // one set, 4 ways
	for k := uint64(0); k < 4; k++ {
		a.insert(k*4, int(k)) // same set (keys differ above set bits)
	}
	a.lookup(0) // refresh key 0
	a.insert(16, 99)
	if _, ok := a.lookup(0); !ok {
		t.Fatal("recently used key 0 was evicted")
	}
	if _, ok := a.lookup(4); ok {
		t.Fatal("LRU key 4 should have been evicted")
	}
}

func TestAssocSetsRoundedToPowerOfTwo(t *testing.T) {
	a := newAssoc[int](100, 4) // 25 sets -> rounds down to 16
	if a.sets != 16 {
		t.Fatalf("sets = %d, want 16", a.sets)
	}
	a2 := newAssoc[int](2, 4) // fewer entries than ways -> one set
	if a2.sets != 1 {
		t.Fatalf("sets = %d, want 1", a2.sets)
	}
}

func TestAssocPanicsOnZeroWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newAssoc[int](16, 0)
}

// Property: after inserting a key, it is always found with its value until
// at least `ways` other inserts hit the same set.
func TestAssocInsertThenLookupProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		a := newAssoc[uint64](256, 8)
		for _, k := range keys {
			a.insert(k, k*2+1)
			if v, ok := a.lookup(k); !ok || v != k*2+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaPRCapacityFromBudget(t *testing.T) {
	p := newPagePredictor(192<<10, 16)
	// 192KB * 8 / 19 bits ~= 82K entries; power-of-two set rounding can
	// halve that at worst.
	if c := p.table.sets * p.table.ways; c < 40000 || c > 90000 {
		t.Fatalf("PaPR capacity = %d entries, want 40K..90K", c)
	}
}

func TestLiPRCapacityFromBudget(t *testing.T) {
	l := newLinePredictor(176<<10, 16)
	// 176KB * 8 / 81 bits ~= 17.8K entries.
	if c := l.table.sets * l.table.ways; c < 8000 || c > 18000 {
		t.Fatalf("LiPR capacity = %d entries, want 8K..18K", c)
	}
}

func TestPaPRTrainSaturation(t *testing.T) {
	p := newPagePredictor(1<<10, 4)
	p.insert(1, 0)
	for i := 0; i < 10; i++ {
		p.train(1, true)
	}
	if c, _ := p.lookup(1); c != 3 {
		t.Fatalf("counter = %d, want saturation at 3", c)
	}
	for i := 0; i < 10; i++ {
		p.train(1, false)
	}
	if c, _ := p.lookup(1); c != 0 {
		t.Fatalf("counter = %d, want floor at 0", c)
	}
}

func TestPaPRTrainAbsentPageNoop(t *testing.T) {
	p := newPagePredictor(1<<10, 4)
	if got := p.train(99, true); got != 0 {
		t.Fatalf("train(absent) = %d, want 0", got)
	}
	if _, ok := p.lookup(99); ok {
		t.Fatal("train must not allocate")
	}
}

func TestPaPRInsertClampsCounter(t *testing.T) {
	p := newPagePredictor(1<<10, 4)
	p.insert(1, 200)
	if c, _ := p.lookup(1); c != 3 {
		t.Fatalf("counter = %d, want clamp to 3", c)
	}
}

func TestGIBoundaryAddress(t *testing.T) {
	g := newGlobalIndicator(8, 1<<20)
	// Addresses at or past the end of memory map to the last counter
	// rather than out of range.
	g.update(1<<20+5, true)
	if g.index(1<<20+5) != 7 {
		t.Fatalf("index = %d, want 7", g.index(1<<20+5))
	}
}
