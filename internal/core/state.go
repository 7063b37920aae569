package core

import (
	"fmt"
	"sort"

	"attache/internal/blem"
	"attache/internal/copr"
)

// Delete removes the line at lineAddr, keeping the compressed-line and
// RA-occupancy gauges consistent. It reports whether the line existed.
// The tiered backend uses it to keep residency exclusive: promoting a
// line to the near tier removes the far copy.
func (m *Memory) Delete(lineAddr uint64) bool {
	st, ok := m.lines[lineAddr]
	if !ok {
		return false
	}
	delete(m.lines, lineAddr)
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

// Options reports the options the memory was built with — the other
// half of what RestoreMemory needs besides ExportState.
func (m *Memory) Options() Options { return m.f.opts }

// LineState is the serializable image of one stored line.
type LineState struct {
	Addr       uint64
	Compressed bool
	Collision  bool
	Blocks     [2][SubRankBlock]byte
}

// MemoryState is the serializable image of a whole Memory: stored lines,
// traffic counters, BLEM state (CID + Replacement Area), and predictor
// state. It is what the snapv1 codec persists per shard.
type MemoryState struct {
	// Lines is sorted by address; addresses must be unique.
	Lines []LineState
	// Stats carries the eight counters; the derived Lines and
	// PredictionAccuracy fields are recomputed and ignored on restore.
	Stats StatsSnapshot
	Blem  blem.State
	// Copr is nil when the predictor is disabled.
	Copr *copr.State
}

// ExportState captures the memory's full state as a plain value tree.
// Everything is copied: the state stays stable while the memory serves.
func (m *Memory) ExportState() *MemoryState {
	st := &MemoryState{
		Lines: make([]LineState, 0, len(m.lines)),
		Stats: m.StatsSnapshot(),
		Blem:  m.f.Blem.ExportState(),
	}
	for addr, line := range m.lines {
		st.Lines = append(st.Lines, LineState{
			Addr:       addr,
			Compressed: line.Compressed,
			Collision:  line.Collision,
			Blocks:     line.Blocks,
		})
	}
	sort.Slice(st.Lines, func(i, j int) bool { return st.Lines[i].Addr < st.Lines[j].Addr })
	if m.f.Copr != nil {
		st.Copr = m.f.Copr.ExportState()
	}
	return st
}

// RestoreMemory builds a Memory from opts and overwrites its state from
// a snapshot, so that every subsequent operation behaves exactly as it
// would have on the original. The snapshot must match the configuration:
// predictor presence and geometry are validated, and the gauge counters
// must agree with the stored lines.
func RestoreMemory(opts Options, st *MemoryState) (*Memory, error) {
	m, err := NewMemory(opts)
	if err != nil {
		return nil, err
	}
	var compressed, collided uint64
	for i, l := range st.Lines {
		if _, dup := m.lines[l.Addr]; dup {
			return nil, fmt.Errorf("core: snapshot stores line %#x twice", l.Addr)
		}
		if i > 0 && st.Lines[i-1].Addr > l.Addr {
			return nil, fmt.Errorf("core: snapshot lines not sorted at index %d", i)
		}
		m.lines[l.Addr] = StoredLine{Blocks: l.Blocks, Compressed: l.Compressed, Collision: l.Collision}
		if l.Compressed {
			compressed++
		}
		if l.Collision {
			collided++
		}
	}
	if st.Stats.CompressedLines != compressed {
		return nil, fmt.Errorf("core: snapshot compressed-lines gauge %d, but %d lines are compressed",
			st.Stats.CompressedLines, compressed)
	}
	if st.Stats.RAOccupancy != collided {
		return nil, fmt.Errorf("core: snapshot RA-occupancy gauge %d, but %d lines are collided",
			st.Stats.RAOccupancy, collided)
	}
	m.stats = st.Stats
	if err := m.f.Blem.RestoreState(st.Blem); err != nil {
		return nil, err
	}
	if (st.Copr != nil) != (m.f.Copr != nil) {
		return nil, fmt.Errorf("core: snapshot predictor presence (%v) does not match configuration (%v)",
			st.Copr != nil, m.f.Copr != nil)
	}
	if st.Copr != nil {
		if err := m.f.Copr.RestoreState(st.Copr); err != nil {
			return nil, err
		}
	}
	return m, nil
}
