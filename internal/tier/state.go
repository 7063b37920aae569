package tier

import (
	"fmt"
	"sort"

	"attache/internal/core"
)

// NearLineState is one near-resident line in the serialized image.
type NearLineState struct {
	Addr uint64
	Freq uint64
	Data [LineSize]byte
}

// FreqCount is one decaying access counter for a far-resident address.
type FreqCount struct {
	Addr  uint64
	Count uint64
}

// State is the serializable image of the tier layer: near residency in
// recency order, the freq policy's decaying counters, and the traffic
// counters. The far tier serializes separately as a core.MemoryState.
type State struct {
	// Near lists the near-resident lines least-recently-used first, so
	// replaying them through pushFront rebuilds the exact recency list.
	Near []NearLineState
	// FarFreq is sorted by address.
	FarFreq []FreqCount
	// FreqOps is the decay clock (accesses since the last halving).
	FreqOps uint64
	// Counters holds nearReads, nearWrites, farReads, farWrites,
	// promotions, demotions — in that order.
	Counters [6]uint64
}

// ExportState captures the tier layer's state. Everything is copied.
func (m *Memory) ExportState() *State {
	st := &State{
		Near:    make([]NearLineState, 0, len(m.near)),
		FreqOps: m.accesses,
		Counters: [6]uint64{
			m.c.NearReads, m.c.NearWrites,
			m.c.FarReads, m.c.FarWrites,
			m.c.Promotions, m.c.Demotions,
		},
	}
	for n := m.tail; n != nil; n = n.prev {
		st.Near = append(st.Near, NearLineState{Addr: n.addr, Freq: n.freq, Data: n.data})
	}
	if m.farFreq != nil {
		st.FarFreq = make([]FreqCount, 0, len(m.farFreq))
		for a, c := range m.farFreq {
			st.FarFreq = append(st.FarFreq, FreqCount{Addr: a, Count: c})
		}
		sort.Slice(st.FarFreq, func(i, j int) bool { return st.FarFreq[i].Addr < st.FarFreq[j].Addr })
	}
	return st
}

// RestoreMemory builds a tiered memory over an already-restored far
// memory and overwrites the tier layer's state from a snapshot. It
// validates exclusive residency (no near line may also exist far) and
// the capacity bound.
func RestoreMemory(cfg Config, far *core.Memory, st *State) (*Memory, error) {
	m, err := NewMemory(cfg, far)
	if err != nil {
		return nil, err
	}
	if m.cfg.NearLines >= 0 && int64(len(st.Near)) > m.cfg.NearLines {
		return nil, fmt.Errorf("tier: snapshot has %d near lines, capacity is %d", len(st.Near), m.cfg.NearLines)
	}
	for _, l := range st.Near {
		if _, dup := m.near[l.Addr]; dup {
			return nil, fmt.Errorf("tier: snapshot stores near line %#x twice", l.Addr)
		}
		if far.Contains(l.Addr) {
			return nil, fmt.Errorf("tier: snapshot line %#x resides in both tiers", l.Addr)
		}
		n := &node{addr: l.Addr, freq: l.Freq, data: l.Data}
		m.near[l.Addr] = n
		m.pushFront(n)
	}
	if len(st.FarFreq) > 0 && m.farFreq == nil {
		return nil, fmt.Errorf("tier: snapshot has freq counters but policy is %q", m.cfg.Policy)
	}
	for i, f := range st.FarFreq {
		if i > 0 && st.FarFreq[i-1].Addr >= f.Addr {
			return nil, fmt.Errorf("tier: snapshot freq counters not strictly sorted at index %d", i)
		}
		m.farFreq[f.Addr] = f.Count
	}
	m.accesses = st.FreqOps
	m.c = Snapshot{
		NearReads:  st.Counters[0],
		NearWrites: st.Counters[1],
		FarReads:   st.Counters[2],
		FarWrites:  st.Counters[3],
		Promotions: st.Counters[4],
		Demotions:  st.Counters[5],
	}
	return m, nil
}
