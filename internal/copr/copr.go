// Package copr implements the Compression Predictor (paper §IV-C), the
// second component of the Attaché framework. COPR replaces the
// Metadata-Cache: before issuing a read, the memory controller asks COPR
// whether the line is compressed (enable one sub-rank) or not (enable
// both). BLEM delivers the ground truth with the data, so a misprediction
// costs only a corrective 32-byte fetch and never any metadata traffic.
//
// COPR predicts at three granularities:
//
//   - LiPR  — line-level: a set-associative table of 64-bit vectors, one
//     bit per cacheline of a 4 KB page (176 KB).
//   - PaPR  — page-level: a set-associative table of 2-bit saturating
//     counters indexed by page number (192 KB).
//   - GI    — global: eight 2-bit saturating counters, one per 1/8th of
//     the physical memory space.
//
// Lookup prefers the finest available level; GI seeds newly allocated
// PaPR entries so pages inherit the application's global behaviour.
package copr

import (
	"fmt"

	"attache/internal/stats"
)

// Page geometry: 4 KB pages of 64-byte lines = 64 lines per page, which
// is exactly one LiPR 64-bit vector.
const (
	pageShift    = 12
	lineShift    = 6
	LinesPerPage = 1 << (pageShift - lineShift)
)

// Source identifies which predictor level produced a prediction.
type Source uint8

// Prediction sources, finest first.
const (
	SourceLiPR Source = iota
	SourcePaPR
	SourceGI
	SourceDefault // every component disabled or cold
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceLiPR:
		return "lipr"
	case SourcePaPR:
		return "papr"
	case SourceGI:
		return "gi"
	case SourceDefault:
		return "default"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// Config sizes and enables the predictor components; the zero value is
// invalid — use DefaultConfig.
type Config struct {
	MemorySize  int64 // modeled physical memory, for GI region mapping
	GICounters  int   // eight in the paper
	GIThreshold uint8 // GI counter value (exclusive) above which new PaPR entries start saturated

	PaPRBytes int // storage budget, 192 KB in the paper
	PaPRWays  int

	LiPRBytes int // storage budget, 176 KB in the paper
	LiPRWays  int

	EnableGI   bool
	EnablePaPR bool
	EnableLiPR bool
}

// DefaultConfig returns the paper's 368 KB configuration for a 16 GB
// memory system.
func DefaultConfig() Config {
	return Config{
		MemorySize:  16 << 30,
		GICounters:  8,
		GIThreshold: 2,
		PaPRBytes:   192 << 10,
		PaPRWays:    16,
		LiPRBytes:   176 << 10,
		LiPRWays:    16,
		EnableGI:    true,
		EnablePaPR:  true,
		EnableLiPR:  true,
	}
}

// Stats aggregates prediction accuracy, overall and per source.
type Stats struct {
	Overall  stats.Ratio
	BySource [SourceDefault + 1]stats.Ratio
}

// Predictor is the full COPR unit.
type Predictor struct {
	cfg   Config
	gi    *globalIndicator
	papr  *pagePredictor
	lipr  *linePredictor
	Stats Stats
}

// Validate reports whether New can build a predictor from c: New panics
// on exactly the configurations Validate rejects, so code that takes a
// Config from outside the program (functional options, a snapshot's
// options section) checks here first.
func (c Config) Validate() error {
	if c.MemorySize <= 0 {
		return fmt.Errorf("copr: memory size %d must be positive", c.MemorySize)
	}
	if c.GICounters <= 0 || c.GICounters&(c.GICounters-1) != 0 {
		return fmt.Errorf("copr: GI counters must be a positive power of two, got %d", c.GICounters)
	}
	if c.EnablePaPR && (c.PaPRWays <= 0 || c.PaPRBytes < 0) {
		return fmt.Errorf("copr: PaPR needs positive ways and a non-negative budget, got %d ways, %d bytes", c.PaPRWays, c.PaPRBytes)
	}
	if c.EnableLiPR && (c.LiPRWays <= 0 || c.LiPRBytes < 0) {
		return fmt.Errorf("copr: LiPR needs positive ways and a non-negative budget, got %d ways, %d bytes", c.LiPRWays, c.LiPRBytes)
	}
	return nil
}

// New builds a predictor from cfg, which must be valid.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	p := &Predictor{cfg: cfg}
	p.gi = newGlobalIndicator(cfg.GICounters, cfg.MemorySize)
	if cfg.EnablePaPR {
		p.papr = newPagePredictor(cfg.PaPRBytes, cfg.PaPRWays)
	}
	if cfg.EnableLiPR {
		p.lipr = newLinePredictor(cfg.LiPRBytes, cfg.LiPRWays)
	}
	return p
}

// Predict guesses whether the line at addr is stored compressed, and
// reports which component decided. It scores nothing and trains nothing,
// but it is not read-only: like the lookups of the hardware it models, it
// refreshes the LRU position of the LiPR and PaPR entries it reads, and so
// changes which entry a later insert evicts. Each table's LRU clock
// advances by one per lookup that finds its key and per insert:
//
//   - Predict: LiPR +1 when the page is present; PaPR +1 when the page is
//     present and LiPR did not answer.
//   - Train: LiPR +2 when present, +1 when inserted; PaPR +3 when
//     present, +1 when inserted.
//   - Update: what Predict and then Train add.
func (p *Predictor) Predict(addr uint64) (compressed bool, src Source) {
	page := addr >> pageShift
	lineIdx := int(addr>>lineShift) & (LinesPerPage - 1)
	if p.lipr != nil {
		// LiPR answers only for lines it has directly observed: a wrong
		// "compressed" guess costs a serialized corrective fetch, so
		// unobserved lines defer to the page-level structures.
		if pred, seen, ok := p.lipr.lookup(page); ok && seen&(1<<uint(lineIdx)) != 0 {
			return pred&(1<<uint(lineIdx)) != 0, SourceLiPR
		}
	}
	if p.papr != nil {
		if c, ok := p.papr.lookup(page); ok {
			return c >= 2, SourcePaPR
		}
	}
	if p.cfg.EnableGI {
		return p.gi.predict(addr), SourceGI
	}
	return false, SourceDefault
}

// Update records whether the current prediction for addr matches the
// observed compressibility, then trains every enabled component. This is
// the read path: the controller predicts, BLEM reveals the truth, COPR
// learns (paper §IV-C2).
func (p *Predictor) Update(addr uint64, compressed bool) {
	predicted, src := p.Predict(addr)
	correct := predicted == compressed
	p.Stats.Overall.Observe(correct)
	p.Stats.BySource[src].Observe(correct)
	p.Train(addr, compressed)
}

// Train teaches the predictor without scoring accuracy — the write path,
// where the controller knows the outcome because it ran the compressor
// itself and no prediction was ever consulted.
func (p *Predictor) Train(addr uint64, compressed bool) {
	page := addr >> pageShift
	lineIdx := int(addr>>lineShift) & (LinesPerPage - 1)

	// GI always trains: it tracks the application's global behaviour.
	p.gi.update(addr, compressed)

	// PaPR trains next so LiPR's neighbor update sees fresh counters.
	var paprCounter uint8
	var paprPresent bool
	if p.papr != nil {
		_, paprPresent = p.papr.lookup(page)
		if paprPresent {
			paprCounter = p.papr.train(page, compressed)
		} else {
			init := uint8(0)
			if p.cfg.EnableGI && p.gi.counterFor(addr) > p.cfg.GIThreshold {
				init = 3
			}
			// The entry starts from the GI hint, then absorbs this
			// observation.
			if compressed && init < 3 {
				init++
			} else if !compressed && init > 0 {
				init--
			}
			p.papr.insert(page, init)
			paprCounter = init
			paprPresent = true
		}
	}

	if p.lipr != nil {
		// A confident PaPR counter deems the page homogeneous: the
		// proactive neighbor update propagates the observation to the
		// page's unobserved lines (paper §IV-C3). Lines already observed
		// keep their learned bits, so mixed pages converge.
		homogeneous := paprPresent && paprCounter >= 2
		fallback := !paprPresent && p.cfg.EnableGI && p.gi.predict(addr)
		p.lipr.train(page, lineIdx, compressed, homogeneous, fallback)
	}
}

// Accuracy reports overall prediction accuracy so far.
func (p *Predictor) Accuracy() float64 { return p.Stats.Overall.Value() }

// StorageBytes reports the SRAM the configured predictor occupies — the
// paper's 368 KB headline for the default configuration.
func (p *Predictor) StorageBytes() int {
	total := p.cfg.GICounters / 4 // 2 bits per counter
	if total == 0 {
		total = 1
	}
	if p.papr != nil {
		total += p.cfg.PaPRBytes
	}
	if p.lipr != nil {
		total += p.cfg.LiPRBytes
	}
	return total
}
