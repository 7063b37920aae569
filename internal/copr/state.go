package copr

import (
	"attache/internal/snap"
	"attache/internal/stats"
)

// snapEntryBytes is one table way on the wire: valid, key, A, B, used.
const snapEntryBytes = 1 + 4*8

// SnapshotBytes reports how many bytes of a snapshot the GI counters and
// the enabled tables of a predictor built from c occupy, without
// building it: restore holds a snapshot's options section to that
// figure before allocating what it configures. c must be valid.
func (c Config) SnapshotBytes() int {
	n := c.GICounters
	if c.EnablePaPR {
		n += assocSets(paprEntries(c.PaPRBytes), c.PaPRWays) * c.PaPRWays * snapEntryBytes
	}
	if c.EnableLiPR {
		n += assocSets(liprEntries(c.LiPRBytes), c.LiPRWays) * c.LiPRWays * snapEntryBytes
	}
	return n
}

// WalkSnap carries the predictor's snapv1 section — GI counters, the
// PaPR and LiPR tables, the accuracy ratios — between the live
// predictor and c: written when c encodes, overwritten when it decodes.
// The snapshot must have been taken from a predictor with the same
// configuration (component presence and table geometry are checked),
// and it is refused, not repaired: a counter outside its 2-bit range or
// an accuracy above 1 cannot come from a real predictor, and restoring
// it clamped would change what the snapshot says.
func (p *Predictor) WalkSnap(c *snap.Cursor) {
	if n := c.Count32(len(p.gi.counters), "GI counter"); n != len(p.gi.counters) {
		c.Fail("%d GI counters, configured %d", n, len(p.gi.counters))
	}
	c.Raw(p.gi.counters) // a no-op once the count has failed
	for _, g := range p.gi.counters {
		if g > 3 {
			c.Fail("GI counter %d exceeds 2-bit range", g)
		}
	}

	if c.Section(p.papr != nil, "PaPR") {
		// PaPR keeps its 2-bit counter in A; B is unused.
		walkAssoc(c, "PaPR", p.papr.table, func(v *uint8) {
			a, b := uint64(*v), uint64(0)
			c.U64(&a)
			c.U64(&b)
			if a > 3 || b != 0 {
				c.Fail("PaPR entry value (%d, %d) outside a 2-bit counter", a, b)
			}
			if c.Decoding() {
				*v = uint8(a)
			}
		})
	}
	if c.Section(p.lipr != nil, "LiPR") {
		// LiPR keeps the per-line prediction vector in A, the
		// observed-line vector in B.
		walkAssoc(c, "LiPR", p.lipr.table, func(v *liprEntry) {
			c.U64(&v.pred)
			c.U64(&v.seen)
		})
	}

	walkRatio(c, &p.Stats.Overall)
	for i := range p.Stats.BySource {
		walkRatio(c, &p.Stats.BySource[i])
	}
}

// walkAssoc carries a set-associative table in set-major slot order,
// LRU clock included — `used` ordering is behavioral (it picks eviction
// victims), so it must round-trip exactly. The table is already sized
// by the configuration; the geometry on the wire must match it.
func walkAssoc[V any](c *snap.Cursor, what string, a *assoc[V], value func(*V)) {
	c.U64(&a.tick)
	sets, ways := a.sets, a.ways
	c.I32(&sets)
	c.I32(&ways)
	if sets != a.sets || ways != a.ways {
		c.Fail("%s table geometry %dx%d does not match configured %dx%d", what, sets, ways, a.sets, a.ways)
	}
	for i := 0; c.OK() && i < len(a.entries); i++ {
		e := &a.entries[i]
		c.Bool(&e.valid)
		c.U64(&e.key)
		value(&e.value)
		c.U64(&e.used)
		if e.used > a.tick {
			c.Fail("%s entry used=%d exceeds tick=%d", what, e.used, a.tick)
		}
	}
}

func walkRatio(c *snap.Cursor, r *stats.Ratio) {
	hits, total := r.Hits(), r.Total()
	c.U64(&hits)
	c.U64(&total)
	if hits > total {
		c.Fail("accuracy counter has %d hits out of %d predictions", hits, total)
	}
	if c.Decoding() {
		r.Restore(hits, total)
	}
}
