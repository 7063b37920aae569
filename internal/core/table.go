package core

import (
	"slices"
	"unsafe"

	"attache/internal/prefetch"
	"attache/internal/stats"
)

// lineTable keeps each stored line beside its address, by value, so a read
// is one probe into memory that already holds the line. It is an
// extendible hash table (DESIGN.md, "The line table"): a directory indexed
// by the top hash bits points at segments probed linearly from the home
// slot, a ¾-full segment splits in two, and only the directory holds
// pointers. Nothing is ever removed: take lends a line's slot out, so that
// find and sorted pass over it and the next put of its address lands in
// it again.
type lineTable struct {
	// seed keys the hash: shardFor places lines by the top bits of the
	// unkeyed SplitMix64, and a client cannot cluster addresses under a
	// hash it does not know.
	seed  uint64
	dir   []dirEntry // 1<<depth entries; nil until the first put
	depth uint
	n     int      // live lines: occupied slots not lent out
	spare *segment // what the last split emptied, for the next one
}

const (
	segBits = 10
	segMask = 1<<segBits - 1
	segMax  = 3 << segBits / 4
)

// slot is one 80-byte entry; a segment is exactly ten pages. A used slot
// holds its address for good; lent marks one whose line was taken.
type slot struct {
	addr uint64
	used bool
	lent bool
	line StoredLine
}

type segment [1 << segBits]slot

// segBooks live apart from their segment, so that it is whole pages: how
// many top hash bits its entries share, and how many it holds.
type segBooks struct {
	depth uint
	n     int
}

type dirEntry struct {
	seg   *segment
	books *segBooks
}

func (t *lineTable) hash(addr uint64) uint64 { return stats.SplitMix64(addr ^ t.seed) }

func (t *lineTable) entry(h uint64) *dirEntry { return &t.dir[h>>(64-t.depth)] }

// probe returns where in seg addr is stored or, when absent, would go.
func probe(seg *segment, h, addr uint64) (int, *slot) {
	for i := h; ; i++ {
		if s := &seg[i&segMask]; !s.used || s.addr == addr {
			return int(i & segMask), s
		}
	}
}

// find returns the line stored at addr, or nil.
func (t *lineTable) find(addr uint64) *StoredLine {
	if t.dir == nil {
		return nil
	}
	h := t.hash(addr)
	if _, s := probe(t.entry(h).seg, h, addr); s.used && !s.lent {
		return &s.line
	}
	return nil
}

// prefetch hints addr's home slot, both cache lines of it, into the cache.
func (t *lineTable) prefetch(addr uint64) {
	if t.dir == nil {
		return
	}
	h := t.hash(addr)
	s := &t.entry(h).seg[h&segMask]
	prefetch.Range(uintptr(unsafe.Pointer(s)), unsafe.Sizeof(*s))
}

// put returns the line stored at addr, inserting a zero one when absent
// (in its lent slot, if it has one); the pointer is good until the next
// put.
func (t *lineTable) put(addr uint64) *StoredLine {
	if t.dir == nil {
		t.dir = []dirEntry{{new(segment), &segBooks{}}}
	}
	h := t.hash(addr)
	for {
		d := t.entry(h)
		if _, s := probe(d.seg, h, addr); s.used {
			if s.lent {
				s.lent, s.line = false, StoredLine{}
				t.n++
			}
			return &s.line
		} else if d.books.n < segMax {
			s.used, s.addr = true, addr
			d.books.n++
			t.n++
			return &s.line
		}
		t.split(h)
	}
}

// split divides the segment h selects by the hash bit below its prefix.
func (t *lineTable) split(h uint64) {
	if t.entry(h).books.depth == t.depth {
		dir := make([]dirEntry, 2*len(t.dir))
		for i, d := range t.dir {
			dir[2*i], dir[2*i+1] = d, d
		}
		t.dir, t.depth = dir, t.depth+1
	}
	old := *t.entry(h)
	if t.spare == nil {
		t.spare = new(segment)
	}
	depth := old.books.depth + 1
	*old.books = segBooks{depth: depth}
	halves := [2]dirEntry{{t.spare, &segBooks{depth: depth}}, {new(segment), old.books}}
	for i := range old.seg {
		if s := &old.seg[i]; s.used {
			sh := t.hash(s.addr)
			d := &halves[sh>>(64-depth)&1]
			_, to := probe(d.seg, sh, s.addr)
			*to = *s
			d.books.n++
		}
	}
	// The old segment's run of directory entries takes the halves in order.
	run := 1 << (t.depth - depth)
	first := int(h>>(64-t.depth)) &^ (2*run - 1)
	for i := range 2 * run {
		t.dir[first+i] = halves[i/run]
	}
	*old.seg = segment{}
	t.spare = old.seg
}

// take lends addr's slot out and returns the line it held.
func (t *lineTable) take(addr uint64) (StoredLine, bool) {
	if t.dir == nil {
		return StoredLine{}, false
	}
	h := t.hash(addr)
	_, s := probe(t.entry(h).seg, h, addr)
	if !s.used || s.lent {
		return StoredLine{}, false
	}
	s.lent = true
	t.n--
	return s.line, true
}

// sorted returns every stored address in ascending order, the only order
// in which the table's contents leave it.
func (t *lineTable) sorted() []uint64 {
	addrs := make([]uint64, 0, t.n)
	for i := 0; i < len(t.dir); i += 1 << (t.depth - t.dir[i].books.depth) {
		for j := range t.dir[i].seg {
			if s := &t.dir[i].seg[j]; s.used && !s.lent {
				addrs = append(addrs, s.addr)
			}
		}
	}
	slices.Sort(addrs)
	return addrs
}
