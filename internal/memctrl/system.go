// Package memctrl assembles the four memory-system organizations the
// paper compares (Fig. 12/13): the uncompressed baseline, sub-ranking +
// compression with a Metadata-Cache, Attaché (BLEM + COPR), and the
// oracle Ideal system. Each organization decides, per request, which
// sub-ranks to enable and which extra metadata / Replacement Area
// requests to issue, then drives the shared DRAM channel model.
package memctrl

import (
	"fmt"

	"attache/internal/check"
	"attache/internal/config"
	"attache/internal/copr"
	"attache/internal/dram"
	"attache/internal/mdcache"
	"attache/internal/sim"
	"attache/internal/stats"
)

// LineModel supplies the ground-truth stored state of every line: its
// compressibility (what the compression engine would achieve on its
// content) and whether its scrambled form collides with the CID. The
// trace package's DataModel implements it; tests use stubs.
type LineModel interface {
	Compressible(lineAddr uint64) bool
	CIDCollides(lineAddr uint64, cidBits int) bool
}

// Stats aggregates system-level request accounting. The Data/Meta/RA
// split is the decomposition behind Fig. 15.
type Stats struct {
	DataReads       stats.Counter
	DataWrites      stats.Counter
	CorrectionReads stats.Counter // COPR misprediction second fetches
	MetaReads       stats.Counter // metadata-cache installs
	MetaWrites      stats.Counter // metadata-cache dirty evictions
	RAReads         stats.Counter
	RAWrites        stats.Counter
	ReadLatency     stats.Mean // submit -> data return, CPU cycles
	CompressedReads stats.Ratio
	// ECCPrediction tracks the ECC-metadata system's last-outcome
	// predictor accuracy (COPR accuracy lives in the copr package).
	ECCPrediction stats.Ratio
}

// TotalRequests reports every DRAM request the system issued.
func (s *Stats) TotalRequests() uint64 {
	return s.DataReads.Value() + s.DataWrites.Value() + s.CorrectionReads.Value() +
		s.MetaReads.Value() + s.MetaWrites.Value() + s.RAReads.Value() + s.RAWrites.Value()
}

// System is one configured memory system.
type System struct {
	eng    *sim.Engine
	cfg    config.Config
	kind   config.SystemKind
	mapper *dram.AddressMapper
	chans  []*dram.Channel
	lines  LineModel

	copr    *copr.Predictor // Attaché only
	cidBits int
	mdc     *mdcache.Cache // MDCache only
	lastOut *lastOutcome   // ECC-metadata system only

	raBase   uint64 // first line of the Replacement Area region
	capLines uint64

	txnFree []*readTxn // recycled read records (flows.go)

	// Runtime checking (config.Check; DESIGN.md §8). rec collects the
	// first invariant violation; checker is the differential oracle,
	// present only on Attaché systems at CheckOracle when the line model
	// can supply real bytes.
	rec     *check.Recorder
	checker *check.Oracle

	Stats Stats
}

// New builds a system of the given kind.
func New(eng *sim.Engine, cfg config.Config, kind config.SystemKind, lines LineModel, seed int64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		eng:     eng,
		cfg:     cfg,
		kind:    kind,
		mapper:  dram.NewAddressMapper(cfg),
		lines:   lines,
		cidBits: cfg.Attache.CIDBits,
	}
	s.capLines = uint64(cfg.MemorySize() / config.LineSize)
	// The Replacement Area is the top 1/512 of memory (paper §IV-A7).
	s.raBase = s.capLines - s.capLines/512
	for ch := 0; ch < cfg.DRAM.Channels; ch++ {
		s.chans = append(s.chans, dram.NewChannel(eng, cfg, ch))
	}
	switch kind {
	case config.SystemAttache:
		s.copr = copr.New(coprConfigFor(cfg))
	case config.SystemMDCache:
		pol, err := mdcache.ParsePolicy(cfg.MDCache.Policy)
		if err != nil {
			return nil, err
		}
		s.mdc = mdcache.New(cfg.MDCache.Bytes, cfg.MDCache.Ways, pol)
	case config.SystemECC:
		s.lastOut = newLastOutcome()
	case config.SystemBaseline, config.SystemIdeal:
	default:
		return nil, fmt.Errorf("memctrl: unknown system kind %v", kind)
	}
	if cfg.Check >= config.CheckInvariants {
		s.rec = &check.Recorder{}
		for _, ch := range s.chans {
			ch.EnableAudit(s.rec)
		}
		// The differential oracle needs real line bytes and the Attaché
		// flow; it attaches only when both are present.
		if cfg.Check >= config.CheckOracle && kind == config.SystemAttache {
			if dm, ok := lines.(check.DataModel); ok {
				o, err := check.NewOracle(s.rec, dm, cfg.Attache.CIDBits, seed, coprConfigFor(cfg))
				if err != nil {
					return nil, err
				}
				s.checker = o
			}
		}
	}
	return s, nil
}

// coprConfigFor maps the system configuration onto the predictor's.
func coprConfigFor(cfg config.Config) copr.Config {
	return copr.Config{
		MemorySize:  cfg.MemorySize(),
		GICounters:  cfg.Attache.GICounters,
		GIThreshold: 2,
		PaPRBytes:   cfg.Attache.PaPRBytes,
		PaPRWays:    cfg.Attache.PaPRWays,
		LiPRBytes:   cfg.Attache.LiPRBytes,
		LiPRWays:    cfg.Attache.LiPRWays,
		EnableGI:    cfg.Attache.EnableGI,
		EnablePaPR:  cfg.Attache.EnablePaPR,
		EnableLiPR:  cfg.Attache.EnableLiPR,
	}
}

// Predictor exposes COPR (Attaché systems only; nil otherwise).
func (s *System) Predictor() *copr.Predictor { return s.copr }

// MetadataCache exposes the metadata cache (MDCache systems only).
func (s *System) MetadataCache() *mdcache.Cache { return s.mdc }

// Channels exposes per-channel stats and energy.
func (s *System) Channels() []*dram.Channel { return s.chans }

// Drained reports whether every channel queue is empty.
func (s *System) Drained() bool {
	for _, c := range s.chans {
		if !c.Drained() {
			return false
		}
	}
	return true
}

// Audit exposes the failure recorder (nil when checking is off).
func (s *System) Audit() *check.Recorder { return s.rec }

// CheckErr finalizes the end-of-run checks — per-channel request
// conservation at drain and the oracle's Replacement-Area conservation —
// and reports the first failure recorded anywhere, or nil. Call it after
// the simulation drains; it is a no-op when checking is off.
func (s *System) CheckErr() error {
	if s.rec == nil {
		return nil
	}
	now := s.eng.Now()
	for _, ch := range s.chans {
		ch.AuditDrained(now)
	}
	if s.checker != nil {
		s.checker.Finish(now)
	}
	return s.rec.Err()
}

// TotalEnergy sums channel energy accumulators.
func (s *System) TotalEnergy() dram.Energy {
	var e dram.Energy
	for _, c := range s.chans {
		e.Add(&c.Energy)
	}
	return e
}

// subRankFor maps a location to the sub-rank that holds its compressed
// form. The paper's implementation uses row parity (odd rows to the first
// sub-rank, §IV-E); we refine it to (row+column) parity so consecutive
// lines of a streamed row alternate sub-ranks and both half-buses stay
// busy. Like row parity it is a pure address function, so reads need no
// metadata to pick the sub-rank.
func subRankFor(loc dram.Location) dram.SubRankMask {
	if (loc.Row+loc.Col)%2 == 1 {
		return dram.SubRank0
	}
	return dram.SubRank1
}

// submit routes a request to its channel.
func (s *System) submit(r *dram.Request) {
	s.chans[r.Loc.Channel].Submit(r)
}

// metaKeyFor maps a data line to its metadata-cache key: one 64-byte
// metadata block holds 4-bit entries for the 128 lines of one row
// (§IV-A1, Fig. 7).
func (s *System) metaKeyFor(lineAddr uint64) uint64 {
	return lineAddr / uint64(s.mapper.LinesPerRow())
}

// metaLocFor places a metadata block in DRAM: the conventional scheme
// stores each row's metadata in that same row (Fig. 7), so metadata
// fetches are usually row hits after the data access opens the row. The
// key identifies a row; its metadata occupies the row's last column.
func (s *System) metaLocFor(key uint64) dram.Location {
	loc := s.mapper.Decode(key * uint64(s.mapper.LinesPerRow()))
	loc.Col = s.mapper.LinesPerRow() - 1
	return loc
}

// raLineFor maps a data line to its Replacement Area line (1 bit per
// line, direct mapped).
func (s *System) raLineFor(lineAddr uint64) uint64 {
	return s.raBase + (lineAddr/512)%(s.capLines-s.raBase)
}

// compressed reports the stored compressibility of a line.
func (s *System) compressed(lineAddr uint64) bool {
	return s.lines.Compressible(lineAddr)
}

// collides reports whether an uncompressed line needs the RA.
func (s *System) collides(lineAddr uint64) bool {
	return !s.compressed(lineAddr) && s.lines.CIDCollides(lineAddr, s.cidBits)
}
