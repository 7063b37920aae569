package shard

import (
	"fmt"
	"io"

	"attache/internal/core"
	"attache/internal/snap"
	"attache/internal/tier"
)

// header is an engine's snapv1 section up to its shards: what restore
// must know before it can build the engine the shards decode into.
type header struct {
	opts   core.Options
	tier   *tier.Config // nil = untiered
	robust RobustStats
	shards int
}

// walk carries the header in wire order, for both directions.
func (h *header) walk(c *snap.Cursor) {
	o := &h.opts
	c.I32(&o.CIDBits)
	c.I64(&o.Seed)
	c.Flags("option", &o.DisablePredictor, &o.ExtendedCompression)
	p := &o.Predictor
	c.I64(&p.MemorySize)
	c.I32(&p.GICounters)
	c.U8(&p.GIThreshold)
	c.I32(&p.PaPRBytes)
	c.I32(&p.PaPRWays)
	c.I32(&p.LiPRBytes)
	c.I32(&p.LiPRWays)
	c.Flags("predictor enable", &p.EnableGI, &p.EnablePaPR, &p.EnableLiPR)

	tiered := h.tier != nil // presence is itself data: the snapshot decides
	c.Bool(&tiered)
	if tiered && c.OK() {
		if c.Decoding() {
			h.tier = new(tier.Config)
		}
		t := h.tier
		c.I64(&t.NearLines)
		c.Str(&t.Policy, 32, "tier policy name")
		c.U64(&t.FreqThreshold)
		c.U64(&t.FreqDecayEvery)
		c.U32(&t.PinShift)
		c.U64(&t.PinPrefix)
		c.F64(&t.Link.FarLatencyNs)
		c.F64(&t.Link.FarBandwidthMult)
		c.F64(&t.Link.NearEnergyPerByte)
		c.F64(&t.Link.FarEnergyPerByte)
	}

	c.U64(&h.robust.Sheds)
	c.U64(&h.robust.Canceled)
	c.U64(&h.robust.InjectedErrors)
	c.U64(&h.robust.InjectedDelays)
	h.shards = c.Count32(h.shards, "shard")
}

// walkSnap carries one shard — the memory, then the tier layer when the
// engine is tiered — between the live shard and c. The caller holds
// w.memMu, or owns w outright because it is still building it.
func (w *worker) walkSnap(c *snap.Cursor) {
	w.mem.WalkSnap(c)
	if c.Section(w.tier != nil, "tier state") {
		w.tier.WalkSnap(c)
	}
}

// Snapshot returns the engine as one snapv1 image, cut consistently:
// it takes every shard's execution lock (in shard order, so concurrent
// snapshots cannot deadlock; nothing else holds more than one) before
// encoding any. Traffic stalls for the duration — submitters wait on the
// execution locks — but no op is ever torn across the cut, and nothing
// slower than memory is touched while the locks are held. It also works
// after Close (the locks are simply uncontended), which is how attached's
// snapshot on shutdown captures final state.
func (e *Engine) Snapshot() []byte {
	size := 0
	for _, w := range e.shards {
		w.memMu.Lock()
		defer w.memMu.Unlock()
		size += w.mem.SnapshotBytes()
		if w.tier != nil {
			size += w.tier.SnapshotBytes()
		}
	}
	c := snap.NewEncoder()
	c.Grow(size + 256)
	h := header{opts: e.opts, tier: e.cfg.Tier, robust: e.robust.load(), shards: len(e.shards)}
	h.walk(c)
	for _, w := range e.shards {
		w.walkSnap(c)
	}
	return c.Bytes()
}

// WriteSnapshot writes the engine's Snapshot to out. Safe at any time,
// including after Close; out is written only once the engine is serving
// again.
func (e *Engine) WriteSnapshot(out io.Writer) error {
	_, err := out.Write(e.Snapshot())
	return err
}

// RestoreEngineFrom reads a snapv1 snapshot from r and rebuilds the
// engine so that every subsequent operation (and stats read) behaves
// exactly as it would have on the original. The snapshot is
// authoritative for the framework options, the tier configuration, and
// the shard count; cfg supplies only runtime knobs (queue depth, fault
// plan, MaxLines). cfg.Shards, if set, must match the snapshot;
// cfg.Tier must be nil.
func RestoreEngineFrom(r io.Reader, cfg Config) (*Engine, error) {
	c, err := snap.Open(r)
	if err != nil {
		return nil, err
	}
	var h header
	h.walk(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if h.shards == 0 {
		return nil, fmt.Errorf("shard: snapshot has no shards: %w", snap.ErrCorrupt)
	}
	if cfg.Shards != 0 && cfg.Shards != h.shards {
		return nil, fmt.Errorf("shard: configured %d shards but snapshot has %d", cfg.Shards, h.shards)
	}
	if cfg.Tier != nil {
		return nil, fmt.Errorf("shard: restore takes the tier configuration from the snapshot; cfg.Tier must be nil")
	}
	cfg.Shards = h.shards
	cfg.Tier = h.tier
	e, err := build(h.opts, cfg, c)
	if err != nil {
		return nil, err
	}
	if err := c.Finish(); err != nil {
		e.Close()
		return nil, err
	}
	e.robust.sheds.Store(h.robust.Sheds)
	e.robust.canceled.Store(h.robust.Canceled)
	e.robust.injectedErrs.Store(h.robust.InjectedErrors)
	e.robust.injectedDelays.Store(h.robust.InjectedDelays)
	return e, nil
}
