package copr

import "fmt"

// EntryState is one way of a set-associative predictor table in slot
// order. A and B carry the value payload: PaPR stores its 2-bit counter
// in A (B unused); LiPR stores the per-line prediction vector in A and
// the observed-line vector in B.
type EntryState struct {
	Valid bool
	Key   uint64
	A, B  uint64
	Used  uint64
}

// TableState is the serializable image of one set-associative table,
// including the LRU clock — `used` ordering is behavioral (it picks
// eviction victims), so it must round-trip exactly.
type TableState struct {
	Tick    uint64
	Sets    int
	Ways    int
	Entries []EntryState // len == Sets*Ways, set-major slot order
}

// RatioState is the serializable image of a stats.Ratio.
type RatioState struct {
	Hits  uint64
	Total uint64
}

// State is the serializable image of a whole COPR predictor.
type State struct {
	GI       []uint8
	PaPR     *TableState // nil when PaPR is disabled
	LiPR     *TableState // nil when LiPR is disabled
	Overall  RatioState
	BySource [SourceDefault + 1]RatioState
}

func exportAssoc[V any](a *assoc[V], enc func(V) (uint64, uint64)) *TableState {
	st := &TableState{
		Tick:    a.tick,
		Sets:    a.sets,
		Ways:    a.ways,
		Entries: make([]EntryState, len(a.entries)),
	}
	for i, e := range a.entries {
		va, vb := enc(e.value)
		st.Entries[i] = EntryState{Valid: e.valid, Key: e.key, A: va, B: vb, Used: e.used}
	}
	return st
}

func restoreAssoc[V any](a *assoc[V], st *TableState, dec func(va, vb uint64) V) error {
	if st.Sets != a.sets || st.Ways != a.ways {
		return fmt.Errorf("copr: snapshot table geometry %dx%d does not match configured %dx%d",
			st.Sets, st.Ways, a.sets, a.ways)
	}
	if len(st.Entries) != a.sets*a.ways {
		return fmt.Errorf("copr: snapshot table has %d entries, want %d", len(st.Entries), a.sets*a.ways)
	}
	for _, e := range st.Entries {
		if e.Used > st.Tick {
			return fmt.Errorf("copr: snapshot entry used=%d exceeds tick=%d", e.Used, st.Tick)
		}
	}
	a.tick = st.Tick
	for i, e := range st.Entries {
		a.entries[i] = assocEntry[V]{valid: e.Valid, key: e.Key, value: dec(e.A, e.B), used: e.Used}
	}
	return nil
}

// ExportState captures the predictor's learned state and accuracy
// counters. Copies everything, so the snapshot stays stable while the
// predictor keeps training.
func (p *Predictor) ExportState() *State {
	st := &State{
		GI:      append([]uint8(nil), p.gi.counters...),
		Overall: RatioState{Hits: p.Stats.Overall.Hits(), Total: p.Stats.Overall.Total()},
	}
	for i := range st.BySource {
		st.BySource[i] = RatioState{Hits: p.Stats.BySource[i].Hits(), Total: p.Stats.BySource[i].Total()}
	}
	if p.papr != nil {
		st.PaPR = exportAssoc(p.papr.table, func(v uint8) (uint64, uint64) { return uint64(v), 0 })
	}
	if p.lipr != nil {
		st.LiPR = exportAssoc(p.lipr.table, func(v liprEntry) (uint64, uint64) { return v.pred, v.seen })
	}
	return st
}

// RestoreState overwrites the predictor's learned state from a
// snapshot. The snapshot must have been taken from a predictor with the
// same configuration: component presence and table geometry must match.
func (p *Predictor) RestoreState(st *State) error {
	if len(st.GI) != len(p.gi.counters) {
		return fmt.Errorf("copr: snapshot has %d GI counters, configured %d", len(st.GI), len(p.gi.counters))
	}
	if (st.PaPR != nil) != (p.papr != nil) {
		return fmt.Errorf("copr: snapshot PaPR presence (%v) does not match configuration (%v)",
			st.PaPR != nil, p.papr != nil)
	}
	if (st.LiPR != nil) != (p.lipr != nil) {
		return fmt.Errorf("copr: snapshot LiPR presence (%v) does not match configuration (%v)",
			st.LiPR != nil, p.lipr != nil)
	}
	for _, g := range st.GI {
		if g > 3 {
			return fmt.Errorf("copr: snapshot GI counter %d exceeds 2-bit range", g)
		}
	}
	// An accuracy above 1 cannot come from a real predictor. Restoring it
	// clamped would change what the snapshot says, so refuse it.
	for _, r := range append([]RatioState{st.Overall}, st.BySource[:]...) {
		if r.Hits > r.Total {
			return fmt.Errorf("copr: snapshot accuracy counter has %d hits out of %d predictions", r.Hits, r.Total)
		}
	}
	if p.papr != nil {
		if err := restoreAssoc(p.papr.table, st.PaPR, func(va, _ uint64) uint8 {
			if va > 3 {
				va = 3
			}
			return uint8(va)
		}); err != nil {
			return err
		}
	}
	if p.lipr != nil {
		if err := restoreAssoc(p.lipr.table, st.LiPR, func(va, vb uint64) liprEntry {
			return liprEntry{pred: va, seen: vb}
		}); err != nil {
			return err
		}
	}
	copy(p.gi.counters, st.GI)
	p.Stats.Overall.Restore(st.Overall.Hits, st.Overall.Total)
	for i := range st.BySource {
		p.Stats.BySource[i].Restore(st.BySource[i].Hits, st.BySource[i].Total)
	}
	return nil
}
