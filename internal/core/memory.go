package core

import (
	"fmt"

	"attache/internal/stats"
)

// StatsSnapshot is an immutable copy of a Memory's counters plus its
// derived metrics, taken at one instant. Snapshots are plain values:
// safe to retain, compare, serialize, and merge across shards.
type StatsSnapshot struct {
	Reads           uint64 `json:"reads" prom:"attached_reads_total,counter" help:"Line reads served."`
	Writes          uint64 `json:"writes" prom:"attached_writes_total,counter" help:"Line writes served."`
	BlocksRead      uint64 `json:"blocks_read" prom:"attached_blocks_read_total,counter" help:"32-byte sub-rank blocks fetched."`
	BlocksWritten   uint64 `json:"blocks_written" prom:"attached_blocks_written_total,counter" help:"32-byte sub-rank blocks written."`
	Mispredictions  uint64 `json:"mispredictions" prom:"attached_mispredictions_total,counter" help:"COPR mispredictions (corrective fetches)."`
	RAAccesses      uint64 `json:"ra_accesses" prom:"attached_ra_accesses_total,counter" help:"Replacement Area reads+writes (CID collisions)."`
	CompressedLines uint64 `json:"compressed_lines" prom:"attached_compressed_lines,gauge" help:"Lines currently stored compressed."`
	RAOccupancy     uint64 `json:"ra_occupancy" prom:"attached_ra_occupancy,gauge" help:"Lines currently parked in the Replacement Area."`
	Lines           uint64 `json:"lines" prom:"attached_lines,gauge" help:"Distinct lines currently stored."`
	// PredictionAccuracy is COPR's running accuracy at snapshot time
	// (1 when the predictor is disabled). It does not merge by summing:
	// Accumulate makes it the reads-weighted mean across shards.
	PredictionAccuracy float64 `json:"prediction_accuracy" prom:"attached_predictor_accuracy,gauge" help:"COPR running accuracy, reads-weighted across shards."`
}

// BandwidthSavings reports the fraction of 32-byte transfers the snapshot
// saw avoided relative to an uncompressed system.
func (s StatsSnapshot) BandwidthSavings() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return 1 - float64(s.BlocksRead+s.BlocksWritten)/float64(2*total)
}

// CompressedLineRatio reports the fraction of stored lines currently
// compressed, or 0 when the memory is empty.
func (s StatsSnapshot) CompressedLineRatio() float64 {
	if s.Lines == 0 {
		return 0
	}
	return float64(s.CompressedLines) / float64(s.Lines)
}

// Accumulate folds another snapshot into s: counters add, and
// PredictionAccuracy becomes the reads-weighted mean of the two, so
// merging per-shard snapshots yields fleet-level metrics.
func (s *StatsSnapshot) Accumulate(o StatsSnapshot) {
	acc := s.PredictionAccuracy
	if s.Reads+o.Reads > 0 {
		acc = (acc*float64(s.Reads) + o.PredictionAccuracy*float64(o.Reads)) / float64(s.Reads+o.Reads)
	}
	stats.Add(s, o)
	s.PredictionAccuracy = acc
}

// Memory is a functional compressed memory backed by the Attaché
// framework: a sparse map of stored lines with exact Store/Load
// round-trips. It is the container the examples build on.
//
// A Memory is NOT safe for concurrent use: Read mutates the COPR
// predictor and the stats counters, so concurrent Read/Write or
// Read/PredictionAccuracy calls race. The concurrent entry point is the
// sharded engine (internal/shard, attache.NewEngine), which guards each
// shard's Memory with an execution lock — note "exclusive lock", not
// "dedicated goroutine": an engine may apply ops on whichever goroutine
// submitted them (the inline fast path), so Memory must not assume any
// goroutine affinity, only mutual exclusion.
type Memory struct {
	f *Framework
	// lines holds one entry per stored line, overwritten in place; free
	// holds the entries Delete unlinked, for the next new address to pop,
	// so it never holds more than peak minus current lines and a steady
	// exchange of lines (a tier's promotions and demotions) allocates
	// nothing.
	lines map[uint64]*StoredLine
	free  []*StoredLine
	// shadow, when non-nil (EnableCheck), keeps the raw bytes of every
	// written line so Read can assert the compress/scramble/BLEM
	// round-trip returned exactly what was stored.
	shadow map[uint64][LineSize]byte
	// stats holds the memory's traffic counters; its Lines and
	// PredictionAccuracy are derived and filled in only by
	// StatsSnapshot, which readers go through: it returns an immutable
	// copy that stays coherent while an engine is running.
	stats StatsSnapshot
}

// NewMemory builds a memory with its own framework instance.
func NewMemory(opts Options) (*Memory, error) {
	f, err := New(opts)
	if err != nil {
		return nil, err
	}
	return &Memory{f: f, lines: make(map[uint64]*StoredLine)}, nil
}

// Framework exposes the underlying framework (predictor stats, BLEM
// counters).
func (m *Memory) Framework() *Framework { return m.f }

// EnableCheck turns on the memory's self-check: every Write keeps a raw
// copy of the line and every Read compares the round-tripped bytes
// against it, failing loudly on the first divergence. Costs one 64-byte
// copy per line; off by default.
func (m *Memory) EnableCheck() {
	if m.shadow == nil {
		m.shadow = make(map[uint64][LineSize]byte)
	}
}

// Write stores a 64-byte line at lineAddr.
func (m *Memory) Write(lineAddr uint64, data []byte) error {
	st, tr, err := m.f.Store(lineAddr, data)
	if err != nil {
		return err
	}
	l := m.lines[lineAddr]
	var wasCompressed, wasCollided bool // false for a new line
	if l != nil {
		wasCompressed, wasCollided = l.Compressed, l.Collision
	} else {
		if n := len(m.free); n > 0 {
			l, m.free = m.free[n-1], m.free[:n-1]
		} else {
			l = new(StoredLine)
		}
		m.lines[lineAddr] = l
	}
	*l = st
	if m.shadow != nil {
		var raw [LineSize]byte
		copy(raw[:], data)
		m.shadow[lineAddr] = raw
	}
	m.stats.Writes++
	m.stats.BlocksWritten += uint64(tr.BlocksTouched)
	if tr.RAAccess {
		m.stats.RAAccesses++
	}
	switch {
	case st.Compressed && !wasCompressed:
		m.stats.CompressedLines++
	case !st.Compressed && wasCompressed:
		dec(&m.stats.CompressedLines)
	}
	switch {
	case st.Collision && !wasCollided:
		m.stats.RAOccupancy++
	case !st.Collision && wasCollided:
		dec(&m.stats.RAOccupancy)
	}
	return nil
}

// Read loads the 64-byte line at lineAddr into a freshly allocated
// slice. Reading a never-written line returns ErrNeverWritten.
func (m *Memory) Read(lineAddr uint64) ([]byte, error) {
	data := new([LineSize]byte)
	if err := m.ReadInto(data, lineAddr); err != nil {
		return nil, err
	}
	return data[:], nil
}

// ReadInto loads the 64-byte line at lineAddr into dst without
// allocating; it is the one read path (Read wraps it). On an error dst
// holds unspecified bytes.
func (m *Memory) ReadInto(dst *[LineSize]byte, lineAddr uint64) error {
	st := m.lines[lineAddr]
	if st == nil {
		return fmt.Errorf("core: line %#x: %w", lineAddr, ErrNeverWritten)
	}
	tr, err := m.f.LoadInto(dst, lineAddr, *st)
	if err != nil {
		return err
	}
	if m.shadow != nil {
		if want, ok := m.shadow[lineAddr]; ok && *dst != want {
			return fmt.Errorf("core: self-check failed at line %#x: read bytes differ from last write", lineAddr)
		}
	}
	m.stats.Reads++
	m.stats.BlocksRead += uint64(tr.BlocksTouched)
	if tr.Mispredicted {
		m.stats.Mispredictions++
	}
	if tr.RAAccess {
		m.stats.RAAccesses++
	}
	return nil
}

// StatsSnapshot returns an immutable copy of the memory's counters and
// derived metrics. This is the supported way to read stats: the returned
// value never changes, so callers can hold it across further traffic.
func (m *Memory) StatsSnapshot() StatsSnapshot {
	s := m.stats
	s.Lines = uint64(len(m.lines))
	s.PredictionAccuracy = m.PredictionAccuracy()
	return s
}

// dec decrements a gauge; decrementing zero panics, since a negative
// line count always indicates an accounting bug.
func dec(g *uint64) {
	if *g == 0 {
		panic("core: gauge underflow")
	}
	*g--
}

// Lines reports how many distinct lines have been written.
func (m *Memory) Lines() int { return len(m.lines) }

// PredictionAccuracy reports COPR's running accuracy, or 1 when the
// predictor is disabled. Like every Memory method it must not race with
// Read/Write; concurrent callers go through the sharded engine.
func (m *Memory) PredictionAccuracy() float64 {
	if m.f.Copr == nil {
		return 1
	}
	return m.f.Copr.Accuracy()
}
