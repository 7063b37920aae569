package memctrl

import "attache/internal/dram"

// The ECC-metadata system (Deb et al., ICCD 2016 — the alternative the
// paper discusses in §VII-A): compression metadata is carried in the
// module's ECC bits, so like BLEM it travels with the data and costs no
// extra requests. The pre-read sub-rank decision, however, comes from a
// simple last-outcome predictor — a table of 1-bit "was the last line in
// this region compressed?" entries — rather than COPR's multi-granularity
// design. Comparing this system against Attaché isolates COPR's
// contribution from BLEM's.
//
// lastOutcome is that predictor: direct-mapped, one bit per line-group.
type lastOutcome struct {
	bits []uint8 // 0 = unknown/uncompressed, 1 = compressed
	mask uint64
}

// lastOutcomeEntries gives the predictor the same storage budget as
// COPR's PaPR+LiPR (368 KB of 1-bit entries ~= 3M entries) so the
// comparison is about structure, not capacity.
const lastOutcomeEntries = 1 << 21

func newLastOutcome() *lastOutcome {
	return &lastOutcome{bits: make([]uint8, lastOutcomeEntries), mask: lastOutcomeEntries - 1}
}

func (l *lastOutcome) index(lineAddr uint64) uint64 {
	return (lineAddr * 0x9E3779B97F4A7C15 >> 20) & l.mask
}

func (l *lastOutcome) predict(lineAddr uint64) bool {
	return l.bits[l.index(lineAddr)] != 0
}

func (l *lastOutcome) update(lineAddr uint64, compressed bool) {
	v := uint8(0)
	if compressed {
		v = 1
	}
	l.bits[l.index(lineAddr)] = v
}

func (s *System) issueECCRead(t *readTxn) {
	t.loc = s.mapper.Decode(t.lineAddr)
	t.actual = s.compressed(t.lineAddr)
	t.predicted = s.lastOut.predict(t.lineAddr)
	// No Replacement Area exists here — the ECC bits are the metadata
	// store — so t.collision is never set and t.data's correction is the
	// other half and nothing more.
	s.Stats.CompressedReads.Observe(t.actual)
	s.Stats.DataReads.Inc()

	// ECC metadata arrives with the half-line and reveals the truth:
	// t.data fetches the rest after a wrong "compressed" prediction.
	mask := dram.SubRankBoth
	if t.predicted {
		mask = subRankFor(t.loc)
	}
	s.submit(&dram.Request{Loc: t.loc, SubRanks: mask, Done: t.dataFn})
}

func (s *System) writeECC(lineAddr uint64) {
	s.Stats.DataWrites.Inc()
	loc := s.mapper.Decode(lineAddr)
	actual := s.compressed(lineAddr)
	s.lastOut.update(lineAddr, actual)
	mask := dram.SubRankBoth
	if actual {
		mask = subRankFor(loc)
	}
	s.submit(&dram.Request{Write: true, Loc: loc, SubRanks: mask})
}
