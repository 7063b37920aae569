package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// checkTable holds a table to its invariants, to model, the lines it
// should hold, and to lent, the addresses taken out since their last put:
// every line is found with its value and no taken address is, a walk
// visits exactly the model's addresses in ascending order, each taken
// address keeps exactly one lent slot, each segment's books count its
// occupied slots, lent ones included, and its depth bounds the prefix its
// entries share, and no probe run has a gap between an entry and its home.
func checkTable(t *testing.T, tab *lineTable, model map[uint64]StoredLine, lent map[uint64]bool) {
	t.Helper()
	if tab.n != len(model) {
		t.Fatalf("table counts %d lines, model holds %d", tab.n, len(model))
	}
	for a, want := range model {
		if got := tab.find(a); got == nil || *got != want {
			t.Fatalf("find(%#x) = %v, model holds %v", a, got, want)
		}
	}
	for a := range lent {
		if got := tab.find(a); got != nil {
			t.Fatalf("find(%#x) = %v after it was taken", a, got)
		}
	}
	want := make([]uint64, 0, len(model))
	for a := range model {
		want = append(want, a)
	}
	slices.Sort(want)
	if walked := tab.sorted(); !slices.Equal(walked, want) {
		t.Fatalf("a walk visits %x, model holds %x", walked, want)
	}
	slotsLent := map[uint64]int{}
	for i, d := range tab.dir {
		if d.books.depth > tab.depth {
			t.Fatalf("segment at %d is %d deep, directory %d", i, d.books.depth, tab.depth)
		}
		n := 0
		for j, s := range d.seg {
			if !s.used {
				continue
			}
			n++
			if s.lent {
				if !lent[s.addr] {
					t.Fatalf("%#x holds a lent slot but was not taken", s.addr)
				}
				// A segment that several directory entries share is seen once per entry.
				if i&(1<<(tab.depth-d.books.depth)-1) == 0 {
					slotsLent[s.addr]++
				}
			}
			h := tab.hash(s.addr)
			if h>>(64-tab.depth)>>(tab.depth-d.books.depth) != uint64(i)>>(tab.depth-d.books.depth) {
				t.Fatalf("%#x sits in the segment at %d, outside its prefix", s.addr, i)
			}
			for k := h & segMask; k != uint64(j); k = (k + 1) & segMask {
				if !d.seg[k].used {
					t.Fatalf("%#x at slot %d: slot %d of its probe run is empty", s.addr, j, k)
				}
			}
		}
		if n != d.books.n || n > segMax {
			t.Fatalf("segment at %d holds %d entries, its books say %d, at most %d may be live", i, n, d.books.n, segMax)
		}
	}
	for a := range lent {
		if slotsLent[a] != 1 {
			t.Fatalf("taken %#x holds %d lent slots, want 1", a, slotsLent[a])
		}
	}
}

// homedAt returns n addresses below 1<<16 whose home slot under tab's hash
// is slot, for seeds that fill a segment's end and wrap.
func homedAt(tab *lineTable, slot uint64, n int) []uint64 {
	var addrs []uint64
	for a := uint64(0); len(addrs) < n; a++ {
		if tab.hash(a)&segMask == slot {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// FuzzLineTable drives put, find and take against a map. Each op is three
// bytes: a kind and a 16-bit address. Kind 3 puts the 1024 addresses from
// there, enough to split a segment. A put of an address the map does not
// hold, taken or never put, must find a zero line.
func FuzzLineTable(f *testing.F) {
	const seed = 7
	op := func(kind byte, addr uint64) []byte { return []byte{kind, byte(addr), byte(addr >> 8)} }
	ops := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	f.Add(ops(op(0, 1), op(1, 1), op(2, 1), op(1, 1)))
	f.Add(ops(op(3, 0), op(3, 1024), op(3, 4096), op(3, 9000), op(2, 5), op(1, 5))) // splits
	f.Add(ops(op(3, 0), op(3, 1024), op(3, 2048)))                                  // four segments at the ¾ bound
	// Three lines homed at the segment's last slot run past its end; one
	// homed at slot 0 follows. Taking the first lends a slot the others
	// are found past, and putting it again lands there.
	tab := &lineTable{seed: seed}
	end, zero := homedAt(tab, segMask, 3), homedAt(tab, 0, 1)
	f.Add(ops(op(0, end[0]), op(0, end[1]), op(0, end[2]), op(0, zero[0]), op(2, end[0]), op(1, zero[0]), op(2, end[2]), op(0, end[0])))
	f.Fuzz(func(t *testing.T, b []byte) {
		tab := &lineTable{seed: seed}
		model := map[uint64]StoredLine{}
		lent := map[uint64]bool{}
		put := func(i int, a uint64) {
			line := StoredLine{Compressed: i%3 == 0, Collision: i%3 == 1}
			line.Blocks[0][0], line.Blocks[1][31] = byte(i), byte(a)
			l := tab.put(a)
			if _, live := model[a]; !live && *l != (StoredLine{}) {
				t.Fatalf("put(%#x) of an absent address (taken: %v) found %v", a, lent[a], *l)
			}
			*l = line
			model[a] = line
			delete(lent, a)
		}
		for i := 0; i+3 <= len(b) && i < 3*256; i += 3 {
			a := uint64(b[i+1]) | uint64(b[i+2])<<8
			switch b[i] % 4 {
			case 0:
				put(i, a)
			case 1:
				want, live := model[a]
				if got := tab.find(a); (got != nil) != live || live && *got != want {
					t.Fatalf("find(%#x) = %v, model %v, %v", a, got, want, live)
				}
			case 2:
				want, live := model[a]
				if got, ok := tab.take(a); ok != live || got != want {
					t.Fatalf("take(%#x) = %v, %v; model %v, %v", a, got, ok, want, live)
				}
				if live {
					delete(model, a)
					lent[a] = true
				}
			case 3:
				for j := a; j < a+1024; j++ {
					put(i, j)
				}
			}
			if tab.n != len(model) {
				t.Fatalf("op %d: table counts %d lines, model holds %d", i/3, tab.n, len(model))
			}
		}
		checkTable(t, tab, model, lent)
	})
}

// TestLineTableSlotSize: a slot is 80 bytes and a segment exactly ten
// pages, so no segment allocation wastes a partial page.
func TestLineTableSlotSize(t *testing.T) {
	if s, seg := unsafe.Sizeof(slot{}), unsafe.Sizeof(segment{}); s != 80 || seg%8192 != 0 {
		t.Fatalf("slot %d B, segment %d B", s, seg)
	}
}

// TestLineTableResistsClusters: 64 Ki addresses that a bare
// multiply-shift hash sends to one home slot — a stride of the segment's
// size, under any multiplier — build probe runs in a seeded table no
// longer than 64 Ki random addresses do, within 2×, on the mean and the
// longest probe. Both tables, grown by some hundred splits, hold to
// checkTable.
func TestLineTableResistsClusters(t *testing.T) {
	const n, mult = 64 << 10, 0x9E3779B97F4A7C15
	probes := func(addrs []uint64) (mean float64, longest uint64) {
		tab := &lineTable{seed: 0x5EED}
		model := map[uint64]StoredLine{}
		for _, a := range addrs {
			tab.put(a).Blocks[0][0] = byte(a >> segBits)
			model[a] = *tab.find(a)
		}
		checkTable(t, tab, model, nil)
		var total uint64
		for _, a := range addrs {
			h := tab.hash(a)
			i, _ := probe(tab.entry(h).seg, h, a)
			p := (uint64(i)-h)&segMask + 1
			total += p
			longest = max(longest, p)
		}
		return float64(total) / float64(len(addrs)), longest
	}
	strided, random := make([]uint64, n), make([]uint64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range strided {
		strided[i] = uint64(i) << segBits
		if strided[i]*mult&segMask != 0 {
			t.Fatalf("%#x does not share home slot 0 under the multiplier", strided[i])
		}
		random[i] = rng.Uint64()
	}
	sm, sl := probes(strided)
	rm, rl := probes(random)
	t.Logf("mean probe %.2f strided, %.2f random; longest %d strided, %d random", sm, rm, sl, rl)
	if sm > 2*rm || sl > 2*rl {
		t.Fatalf("strided addresses probe %.2f on average (longest %d), random ones %.2f (%d)", sm, sl, rm, rl)
	}
}
