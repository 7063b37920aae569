package memctrl

import (
	"attache/internal/config"
	"attache/internal/dram"
	"attache/internal/sim"
)

// readTxn is the state of one read in flight. Records are pooled on
// System.txnFree and their method values are bound once, when a record
// is first allocated, so a read schedules and submits t.xxxFn where it
// would otherwise build a closure per step.
//
// Ownership: a callback bound to a record is live from getTxn until that
// record's finish runs; finish releases the record before it calls the
// caller's done, so a done that re-enters Read may be handed the same
// record.
type readTxn struct {
	s        *System
	lineAddr uint64
	start    sim.Time
	done     func(now sim.Time) // the caller's
	loc      dram.Location

	// Ground truth and prediction, fixed at issue (Attaché, ECC).
	actual, collision, predicted bool
	// remaining counts the responses a two-request merge still awaits.
	remaining int

	issueFn    sim.Event // after the predictor / metadata-cache latency
	dataFn     sim.Event // first DRAM response (Attaché, ECC)
	completeFn sim.Event
	mergeFn    sim.Event
	finishFn   sim.Event
}

func (s *System) getTxn() *readTxn {
	if n := len(s.txnFree); n > 0 {
		t := s.txnFree[n-1]
		s.txnFree = s.txnFree[:n-1]
		return t
	}
	t := &readTxn{s: s}
	t.issueFn, t.dataFn, t.completeFn, t.mergeFn, t.finishFn = t.issue, t.data, t.complete, t.merge, t.finish
	return t
}

// Read requests the 64-byte line at lineAddr; done runs when the complete
// line is available at the controller. The request path depends on the
// system organization.
func (s *System) Read(lineAddr uint64, done func(now sim.Time)) {
	t := s.getTxn()
	t.lineAddr, t.start, t.done = lineAddr, s.eng.Now(), done
	switch s.kind {
	case config.SystemBaseline:
		s.readBaseline(t)
	case config.SystemIdeal:
		s.readIdeal(t)
	case config.SystemAttache, config.SystemECC:
		// The COPR lookup costs the same 8 cycles as a metadata-cache
		// probe (paper §V), and so does the ECC system's last-outcome
		// table; the request issues after it.
		s.eng.ScheduleAfter(s.cfg.Attache.PredictorLatency, t.issueFn)
	case config.SystemMDCache:
		s.eng.ScheduleAfter(s.cfg.MDCache.Latency, t.issueFn)
	}
}

// issue runs once the lookup latency has passed.
func (t *readTxn) issue(sim.Time) {
	switch t.s.kind {
	case config.SystemAttache:
		t.s.issueAttacheRead(t)
	case config.SystemMDCache:
		t.s.issueMDCacheRead(t)
	case config.SystemECC:
		t.s.issueECCRead(t)
	}
}

// data handles the first DRAM response of an Attaché or ECC read: the
// header (BLEM) or the ECC bits arrived with it and reveal the truth.
func (t *readTxn) data(now sim.Time) {
	s := t.s
	switch {
	case t.predicted && !t.actual:
		// Misprediction: the block is uncompressed (or collided); fetch
		// the remaining half, plus the RA bit on a collision.
		s.Stats.CorrectionReads.Inc()
		s.fetchRest(t)
	case !t.predicted && !t.actual && t.collision:
		// XID says collision: the true data bit lives in the RA.
		s.readRA(t.lineAddr, t.completeFn)
	default:
		// The prediction held, or both halves are already here.
		t.complete(now)
	}
}

// merge joins the two responses of a read that needed two requests.
func (t *readTxn) merge(now sim.Time) {
	if t.remaining--; t.remaining == 0 {
		t.complete(now)
	}
}

// complete trains the predictor with the ground truth (Attaché: COPR and
// the oracle checker; ECC: the last-outcome table) and finishes the read.
func (t *readTxn) complete(now sim.Time) {
	s := t.s
	switch s.kind {
	case config.SystemAttache:
		s.copr.Update(t.lineAddr*config.LineSize, t.actual)
		if s.checker != nil {
			s.checker.OnReadComplete(t.lineAddr, t.actual, now)
		}
	case config.SystemECC:
		s.Stats.ECCPrediction.Observe(t.predicted == t.actual)
		s.lastOut.update(t.lineAddr, t.actual)
	}
	t.finish(now)
}

// finish observes the read's latency, releases the record and only then
// releases the caller.
func (t *readTxn) finish(now sim.Time) {
	s, done := t.s, t.done
	s.Stats.ReadLatency.Observe(float64(now - t.start))
	t.done = nil
	s.txnFree = append(s.txnFree, t)
	if done != nil {
		done(now)
	}
}

// Write posts the 64-byte line at lineAddr.
func (s *System) Write(lineAddr uint64) {
	switch s.kind {
	case config.SystemBaseline:
		s.writeBaseline(lineAddr)
	case config.SystemIdeal:
		s.writeIdeal(lineAddr)
	case config.SystemAttache:
		s.writeAttache(lineAddr)
	case config.SystemMDCache:
		s.writeMDCache(lineAddr)
	case config.SystemECC:
		s.writeECC(lineAddr)
	}
}

// --- Baseline: no compression, no sub-ranking --------------------------

func (s *System) readBaseline(t *readTxn) {
	s.Stats.DataReads.Inc()
	loc := s.mapper.Decode(t.lineAddr)
	s.submit(&dram.Request{Loc: loc, SubRanks: dram.SubRankBoth, Done: t.finishFn})
}

func (s *System) writeBaseline(lineAddr uint64) {
	s.Stats.DataWrites.Inc()
	loc := s.mapper.Decode(lineAddr)
	s.submit(&dram.Request{Write: true, Loc: loc, SubRanks: dram.SubRankBoth})
}

// --- Ideal: oracle metadata, zero overhead -----------------------------

func (s *System) readIdeal(t *readTxn) {
	s.Stats.DataReads.Inc()
	loc := s.mapper.Decode(t.lineAddr)
	comp := s.compressed(t.lineAddr)
	s.Stats.CompressedReads.Observe(comp)
	mask := dram.SubRankBoth
	if comp {
		mask = subRankFor(loc)
	}
	s.submit(&dram.Request{Loc: loc, SubRanks: mask, Done: t.finishFn})
}

func (s *System) writeIdeal(lineAddr uint64) {
	s.Stats.DataWrites.Inc()
	loc := s.mapper.Decode(lineAddr)
	mask := dram.SubRankBoth
	if s.compressed(lineAddr) {
		mask = subRankFor(loc)
	}
	s.submit(&dram.Request{Write: true, Loc: loc, SubRanks: mask})
}

// --- Attaché: BLEM + COPR ----------------------------------------------

func (s *System) issueAttacheRead(t *readTxn) {
	lineAddr := t.lineAddr
	t.loc = s.mapper.Decode(lineAddr)
	t.actual = s.compressed(lineAddr)
	t.collision = s.collides(lineAddr)
	t.predicted, _ = s.copr.Predict(lineAddr * config.LineSize)
	s.Stats.CompressedReads.Observe(t.actual)
	s.Stats.DataReads.Inc()
	if s.checker != nil {
		s.checker.OnReadIssue(lineAddr, t.predicted, t.actual, s.eng.Now())
	}

	// Predicted compressed: fetch only the header-bearing sub-rank block.
	// Predicted uncompressed: enable both sub-ranks; if the line was
	// actually compressed the extra half was wasted bandwidth but the
	// data is already here (no correction request). t.data sorts out
	// which it was when the block arrives.
	mask := dram.SubRankBoth
	if t.predicted {
		mask = subRankFor(t.loc)
	}
	s.submit(&dram.Request{Loc: t.loc, SubRanks: mask, Done: t.dataFn})
}

// fetchRest issues the corrective second-half fetch (and RA read when the
// line collided) after a wrong "compressed" prediction.
func (s *System) fetchRest(t *readTxn) {
	other := dram.SubRank0
	if subRankFor(t.loc) == dram.SubRank0 {
		other = dram.SubRank1
	}
	if !t.collision {
		s.submit(&dram.Request{Loc: t.loc, SubRanks: other, Done: t.completeFn})
		return
	}
	// Collision: both the remaining half and the RA bit are needed; the
	// read completes when both arrive.
	t.remaining = 2
	s.submit(&dram.Request{Loc: t.loc, SubRanks: other, Done: t.mergeFn})
	s.readRA(t.lineAddr, t.mergeFn)
}

func (s *System) readRA(lineAddr uint64, done func(sim.Time)) {
	s.Stats.RAReads.Inc()
	loc := s.mapper.Decode(s.raLineFor(lineAddr))
	s.submit(&dram.Request{Loc: loc, SubRanks: dram.SubRankBoth, Done: done})
}

func (s *System) writeAttache(lineAddr uint64) {
	s.Stats.DataWrites.Inc()
	loc := s.mapper.Decode(lineAddr)
	// The controller just compressed this line, so it knows the outcome:
	// keep the predictor warm with write-path observations too.
	defer s.copr.Train(lineAddr*config.LineSize, s.compressed(lineAddr))
	if s.checker != nil {
		s.checker.OnWrite(lineAddr, s.compressed(lineAddr), s.eng.Now())
	}
	if s.compressed(lineAddr) {
		s.submit(&dram.Request{Write: true, Loc: loc, SubRanks: subRankFor(loc)})
		return
	}
	s.submit(&dram.Request{Write: true, Loc: loc, SubRanks: dram.SubRankBoth})
	if s.collides(lineAddr) {
		// Park the displaced bit: a posted read-modify-write of the RA
		// block, modeled as one write request.
		s.Stats.RAWrites.Inc()
		raLoc := s.mapper.Decode(s.raLineFor(lineAddr))
		s.submit(&dram.Request{Write: true, Loc: raLoc, SubRanks: dram.SubRankBoth})
	}
}

// --- Metadata-Cache system ---------------------------------------------

func (s *System) issueMDCacheRead(t *readTxn) {
	loc := s.mapper.Decode(t.lineAddr)
	actual := s.compressed(t.lineAddr)
	s.Stats.CompressedReads.Observe(actual)
	key := s.metaKeyFor(t.lineAddr)

	res := s.mdc.Access(key, false)
	if res.EvictedDirty {
		s.writeMeta(res.VictimKey)
	}
	if res.Hit {
		// The cached metadata says which sub-ranks to enable: compressed
		// lines ride a single sub-rank.
		s.Stats.DataReads.Inc()
		mask := dram.SubRankBoth
		if actual {
			mask = subRankFor(loc)
		}
		s.submit(&dram.Request{Loc: loc, SubRanks: mask, Done: t.finishFn})
		return
	}
	// Miss: without metadata the controller cannot exploit sub-ranking
	// for this access. It fetches the full 64-byte line conservatively
	// and the metadata block in parallel (two consecutive requests to
	// the same row, Fig. 7); the read completes when both have arrived,
	// since the decompressor needs the metadata to interpret the data.
	s.Stats.MetaReads.Inc()
	s.Stats.DataReads.Inc()
	t.remaining = 2
	s.submit(&dram.Request{Loc: loc, SubRanks: dram.SubRankBoth, Done: t.mergeFn})
	s.submit(&dram.Request{Loc: s.metaLocFor(key), SubRanks: dram.SubRankBoth, Done: t.mergeFn})
}

func (s *System) writeMDCache(lineAddr uint64) {
	loc := s.mapper.Decode(lineAddr)
	actual := s.compressed(lineAddr)
	s.Stats.DataWrites.Inc()
	mask := dram.SubRankBoth
	if actual {
		mask = subRankFor(loc)
	}
	s.submit(&dram.Request{Write: true, Loc: loc, SubRanks: mask})

	// The write updates the line's metadata: a write access to the
	// metadata cache. A miss installs the metadata block first.
	key := s.metaKeyFor(lineAddr)
	res := s.mdc.Access(key, true)
	if res.EvictedDirty {
		s.writeMeta(res.VictimKey)
	}
	if !res.Hit {
		s.Stats.MetaReads.Inc()
		s.submit(&dram.Request{Loc: s.metaLocFor(key), SubRanks: dram.SubRankBoth})
	}
}

func (s *System) writeMeta(key uint64) {
	s.Stats.MetaWrites.Inc()
	s.submit(&dram.Request{Write: true, Loc: s.metaLocFor(key), SubRanks: dram.SubRankBoth})
}
