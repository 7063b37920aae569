package core

import (
	"fmt"
	"math/rand/v2"

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
// framework: a sparse table of stored lines with exact Store/Load
// round-trips. It is the container the examples build on. Take removes a
// line and returns its stored form, and WriteStored puts an unchanged
// line back in that form without compressing it again: the tiered
// backend moves lines between its tiers that way.
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
	// lines holds each stored line beside its address (table.go).
	lines lineTable
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
	return &Memory{f: f, lines: lineTable{seed: rand.Uint64()}}, nil
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
	m.record(lineAddr, data, st, tr)
	return nil
}

// WriteStored stores data at lineAddr in st, the form Store made of it
// there before, without compressing it again. Store is a pure function of
// the address, the bytes, the CID, the scrambler key and the codec set,
// apart from the write it counts in BLEM and the training it gives COPR;
// WriteStored replays those two, so it leaves the memory exactly as Write
// would. A collided form is refused, since its displaced bit must be
// parked in the Replacement Area again, which only Write does.
func (m *Memory) WriteStored(lineAddr uint64, data *[LineSize]byte, st StoredLine) {
	if st.Collision {
		panic("core: WriteStored of a collided line")
	}
	tr := AccessTrace{BlocksTouched: 2}
	m.f.Blem.Stats.Writes.Inc()
	if st.Compressed {
		m.f.Blem.Stats.CompressedWrites.Inc()
		tr.BlocksTouched = 1
	}
	if m.f.Copr != nil {
		m.f.Copr.Train(lineAddr*LineSize, st.Compressed)
	}
	m.record(lineAddr, data[:], st, tr)
}

// record puts st, the stored form of data that a write at lineAddr cost tr,
// in the table, and keeps the shadow, the counters and the gauges.
func (m *Memory) record(lineAddr uint64, data []byte, st StoredLine, tr AccessTrace) {
	l := m.lines.put(lineAddr) // a new line's flags are false
	wasCompressed, wasCollided := l.Compressed, l.Collision
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
}

// Take removes the line at lineAddr and returns its stored form, keeping
// the compressed-line and RA-occupancy gauges consistent; ok reports
// whether the line existed. Its table slot is lent, not freed, so the
// next write of lineAddr lands where the line was. The tiered backend
// takes a line out when it promotes it, which keeps residency exclusive,
// and gives a line it never wrote back through WriteStored.
func (m *Memory) Take(lineAddr uint64) (st StoredLine, ok bool) {
	if st, ok = m.lines.take(lineAddr); !ok {
		return st, false
	}
	if m.shadow != nil {
		delete(m.shadow, lineAddr)
	}
	if st.Compressed {
		dec(&m.stats.CompressedLines)
	}
	if st.Collision {
		dec(&m.stats.RAOccupancy)
	}
	return st, true
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
	st := m.lines.find(lineAddr)
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

// Prefetch hints lineAddr's line-table home slot, what a Read or Write of
// it touches first, into the cache, so that a caller holding a batch can
// overlap the batch's misses instead of waiting on each in turn. A hint
// only: it changes no state, no counter and no result, and it allocates
// nothing.
func (m *Memory) Prefetch(lineAddr uint64) { m.lines.prefetch(lineAddr) }

// StatsSnapshot returns an immutable copy of the memory's counters and
// derived metrics. This is the supported way to read stats: the returned
// value never changes, so callers can hold it across further traffic.
func (m *Memory) StatsSnapshot() StatsSnapshot {
	s := m.stats
	s.Lines = uint64(m.lines.n)
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
func (m *Memory) Lines() int { return m.lines.n }

// PredictionAccuracy reports COPR's running accuracy, or 1 when the
// predictor is disabled. Like every Memory method it must not race with
// Read/Write; concurrent callers go through the sharded engine.
func (m *Memory) PredictionAccuracy() float64 {
	if m.f.Copr == nil {
		return 1
	}
	return m.f.Copr.Accuracy()
}
