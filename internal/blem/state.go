package blem

import (
	"attache/internal/snap"
	"attache/internal/stats"
)

// WalkSnap carries the engine's snapv1 section — the CID value, the
// touched Replacement Area entries sorted by address, and the seven
// stat counters — between the live engine and c: written when c
// encodes, overwritten (on a fresh engine) when it decodes, so a
// restored engine classifies lines and counts RA traffic exactly like
// the original.
//
// The CID is recorded even though NewEngine derives it from the seed:
// a snapshot must stay authoritative if the derivation ever changes. It
// must fit the configured width — a wider value means the snapshot came
// from an incompatible configuration.
func (e *Engine) WalkSnap(c *snap.Cursor) {
	c.U16(&e.cid)
	if e.cid >= 1<<uint(e.cidBits) {
		c.Fail("CID %#x does not fit %d bits", e.cid, e.cidBits)
	}

	snap.Map(c, &e.ra.bits, 9, "RA entry", func(_ uint64, bit *bool) { c.Bool(bit) })

	for _, ctr := range []*stats.Counter{
		&e.Stats.Writes, &e.Stats.CompressedWrites, &e.Stats.Collisions, &e.Stats.RAWrites,
		&e.Stats.Reads, &e.Stats.CollisionReads, &e.Stats.RAReads,
	} {
		v := ctr.Value()
		c.U64(&v)
		if c.Decoding() {
			ctr.Restore(v)
		}
	}
}
