package core

import "attache/internal/snap"

// Delete removes the line at lineAddr, keeping the compressed-line and
// RA-occupancy gauges consistent. It reports whether the line existed.
// The tiered backend uses it to keep residency exclusive: promoting a
// line to the near tier removes the far copy.
func (m *Memory) Delete(lineAddr uint64) bool {
	st := m.lines[lineAddr]
	if st == nil {
		return false
	}
	delete(m.lines, lineAddr)
	m.free = append(m.free, st)
	if m.shadow != nil {
		delete(m.shadow, lineAddr)
	}
	if st.Compressed {
		dec(&m.stats.CompressedLines)
	}
	if st.Collision {
		dec(&m.stats.RAOccupancy)
	}
	return true
}

// Contains reports whether a line is currently stored at lineAddr.
func (m *Memory) Contains(lineAddr uint64) bool {
	_, ok := m.lines[lineAddr]
	return ok
}

// Options reports the options the memory was built with.
func (m *Memory) Options() Options { return m.f.opts }

// snapLineBytes is one stored line on the wire: address, flags, blocks.
const snapLineBytes = 8 + 1 + LineSize

// SnapshotBytes bounds from above, within a few hundred bytes, what the
// memory's snapv1 section takes: what an encoder grows its buffer by
// before walking the memory.
func (m *Memory) SnapshotBytes() int {
	cfg, _ := m.f.opts.PredictorConfig() // the zero Config takes no bytes
	return len(m.lines)*snapLineBytes + m.f.Blem.ReplacementArea().Len()*9 + cfg.SnapshotBytes() + 512
}

// WalkSnap carries the memory's snapv1 section — stored lines sorted by
// address, the eight traffic counters, then the BLEM and predictor
// sections — between the live memory and c: written when c encodes;
// when it decodes, read into m, which must be fresh from NewMemory, so
// that every subsequent operation behaves exactly as it would have on
// the original. The snapshot must match the configuration (predictor
// presence and geometry), and the gauge counters must agree with the
// stored lines. Lines and PredictionAccuracy are derived, never stored.
func (m *Memory) WalkSnap(c *snap.Cursor) {
	var compressed, collided uint64
	snap.Map(c, &m.lines, snapLineBytes, "line", func(addr uint64, entry **StoredLine) {
		if *entry == nil { // decoding: the table holds pointers
			*entry = new(StoredLine)
		}
		l := *entry
		c.Flags("line", &l.Compressed, &l.Collision)
		if l.Compressed && l.Collision {
			c.Fail("line %#x both compressed and collided", addr)
		}
		c.Raw(l.Blocks[0][:])
		c.Raw(l.Blocks[1][:])
		if l.Compressed {
			compressed++
		}
		if l.Collision {
			collided++
		}
	})

	s := &m.stats
	c.U64(&s.Reads)
	c.U64(&s.Writes)
	c.U64(&s.BlocksRead)
	c.U64(&s.BlocksWritten)
	c.U64(&s.Mispredictions)
	c.U64(&s.RAAccesses)
	c.U64(&s.CompressedLines)
	c.U64(&s.RAOccupancy)
	if s.CompressedLines != compressed {
		c.Fail("compressed-lines gauge %d, but %d lines are compressed", s.CompressedLines, compressed)
	}
	if s.RAOccupancy != collided {
		c.Fail("RA-occupancy gauge %d, but %d lines are collided", s.RAOccupancy, collided)
	}

	m.f.Blem.WalkSnap(c)

	if c.Section(m.f.Copr != nil, "predictor") {
		m.f.Copr.WalkSnap(c)
	}
}
