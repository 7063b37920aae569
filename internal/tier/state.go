package tier

import "attache/internal/snap"

// snapNearBytes is one near-resident line on the wire: address, access
// frequency, data.
const snapNearBytes = 8 + 8 + LineSize

// SnapshotBytes bounds from above what the tier layer's snapv1 section
// takes (the far memory's is its own): what an encoder grows its buffer
// by before walking the tier.
func (m *Memory) SnapshotBytes() int {
	return len(m.near)*snapNearBytes + len(m.farFreq)*16 + 128
}

// WalkSnap carries the tier layer's snapv1 section — near residency,
// the freq policy's decaying counters sorted by address, the decay
// clock, the six traffic counters — between the live tier and c:
// written when c encodes; when it decodes, read into m, which must be
// fresh from NewMemory over an already-restored far memory. The far
// memory's section is its own, walked before this one.
//
// Near lines travel least-recently-used first, so replaying them
// through pushFront rebuilds the exact recency list. Decoding enforces
// the capacity bound and exclusive residency: no near line twice, none
// that also exists far.
func (m *Memory) WalkSnap(c *snap.Cursor) {
	n := c.Count64(len(m.near), snapNearBytes, "near line")
	if m.cfg.NearLines >= 0 && int64(n) > m.cfg.NearLines {
		c.Fail("%d near lines, capacity is %d", n, m.cfg.NearLines)
	}
	at := m.tail // the encoder's position on the recency list
	for i := 0; c.OK() && i < n; i++ {
		nd := at
		if c.Decoding() {
			nd = &node{}
		} else {
			at = at.prev
		}
		c.U64(&nd.addr)
		c.U64(&nd.freq)
		c.Raw(nd.data[:])
		if !c.Decoding() {
			continue
		}
		if _, dup := m.near[nd.addr]; dup {
			c.Fail("near line %#x stored twice", nd.addr)
		}
		if m.far.Contains(nd.addr) {
			c.Fail("line %#x resides in both tiers", nd.addr)
		}
		m.near[nd.addr] = nd
		m.pushFront(nd)
	}

	snap.Map(c, &m.farFreq, 16, "freq counter", func(_ uint64, count *uint64) { c.U64(count) })
	if len(m.farFreq) > 0 && m.cfg.Policy != PolicyFreq {
		c.Fail("freq counters present but policy is %q", m.cfg.Policy)
	}

	c.U64(&m.accesses)
	c.U64(&m.c.NearReads)
	c.U64(&m.c.NearWrites)
	c.U64(&m.c.FarReads)
	c.U64(&m.c.FarWrites)
	c.U64(&m.c.Promotions)
	c.U64(&m.c.Demotions)
}
