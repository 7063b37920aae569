package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/shard"
	"attache/internal/workload"
)

// maxRingEvents bounds the generated input: the timed run replays the
// ring cyclically instead of pre-expanding the whole run, which would
// put gigabytes of plan on the heap and swing the numbers with it.
const maxRingEvents = 20000

// ring is one workload's generated input: a bounded event sequence over
// a fully prefilled address space, plus what a read may legally return.
type ring struct {
	events []loadgen.Event
	space  uint64                   // addresses are 0..space-1
	fill   func(addr uint64) []byte // the line prefill writes at addr
	ops    int                      // ops in one pass over events

	// Read-back model: the hashes of every payload ever written to
	// address a are valid[off[a]:off[a+1]] (prefill first). Concurrent
	// clients replay the ring at different phases, so any of them may
	// be the latest; a line outside the set is wrong bytes.
	off   []uint32
	valid []uint64
}

func newRing(events []loadgen.Event, space uint64, fill func(addr uint64) []byte) (*ring, error) {
	if len(events) == 0 || len(events) > maxRingEvents {
		return nil, fmt.Errorf("ring of %d events, want 1..%d", len(events), maxRingEvents)
	}
	r := &ring{events: events, space: space, fill: fill}
	sets := make([][]uint64, space)
	for a := range sets {
		sets[a] = []uint64{hashLine(fill(uint64(a)))}
	}
	for _, ev := range events {
		r.ops += len(ev.Ops)
		for _, op := range ev.Ops {
			if op.Addr >= space {
				return nil, fmt.Errorf("event addresses %d beyond the %d prefilled lines", op.Addr, space)
			}
			if !op.Write {
				continue
			}
			if h := hashLine(op.Data); !slices.Contains(sets[op.Addr], h) {
				sets[op.Addr] = append(sets[op.Addr], h)
			}
		}
	}
	r.off = make([]uint32, space+1)
	for a, s := range sets {
		r.off[a+1] = r.off[a] + uint32(len(s))
		r.valid = append(r.valid, s...)
	}
	return r, nil
}

// legal reports whether data is a line some write in this run put at
// addr. Allocation-free; it runs on every ok read of the timed run.
func (r *ring) legal(addr uint64, data []byte) bool {
	if len(data) != core.LineSize || addr >= r.space {
		return false
	}
	return slices.Contains(r.valid[r.off[addr]:r.off[addr+1]], hashLine(data))
}

// hashLine mixes a 64-byte line into 64 bits.
func hashLine(b []byte) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for i := 0; i+8 <= len(b); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(b[i:])) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// mixedFill is the prefill image of the loadgen-planned workloads: the
// same address-parity mix loadgen's own payloads have.
func mixedFill(addr uint64) []byte { return workload.PayloadLine(workload.PayloadMixed, addr, 0) }

// planRing draws the ring from loadgen.Plan: single-op events (batch 0)
// split reads:writes, or nothing but batch-op batches, which Plan fills
// 75 % reads / 25 % writes. Payloads are loadgen's mixed lines.
func planRing(seed int64, events int, space uint64, reads, writes, batch int) (*ring, error) {
	cfg := loadgen.Config{
		Seed: seed, Events: events, AddrSpace: space,
		ReadWeight: reads, WriteWeight: writes, Prefill: -1,
	}
	if batch > 0 {
		cfg.ReadWeight, cfg.WriteWeight, cfg.BatchWeight, cfg.BatchSize = 0, 0, 1, batch
	}
	return newRing(loadgen.Plan(cfg), space, mixedFill)
}

// batchRing generates events of batch ops each, writePct % of them
// writes, over uniform addresses. pick chooses a write's payload class
// from its address and its sequence number among the writes; prefill
// writes pick(addr, addr).
func batchRing(seed int64, events, batch int, space uint64, writePct int, pick func(addr, seq uint64) workload.PayloadKind) (*ring, error) {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]loadgen.Event, events)
	var seq uint64
	for i := range evs {
		ops := make([]shard.Op, batch)
		for j := range ops {
			addr := rng.Uint64() % space
			if rng.Intn(100) < writePct {
				seq++
				ops[j] = shard.Op{Write: true, Addr: addr, Data: workload.PayloadLine(pick(addr, seq), addr, rng.Uint64())}
			} else {
				ops[j] = shard.Op{Addr: addr}
			}
		}
		evs[i] = loadgen.Event{Kind: loadgen.Batch, Ops: ops}
	}
	fill := func(addr uint64) []byte { return workload.PayloadLine(pick(addr, addr), addr, 0) }
	return newRing(evs, space, fill)
}

// presetRing composes a named workload scenario into the ring.
func presetRing(name string, seed int64, events int) (*ring, error) {
	spec, err := workload.Preset(name, seed, events)
	if err != nil {
		return nil, err
	}
	evs, err := workload.Compose(spec)
	if err != nil {
		return nil, err
	}
	return newRing(evs, spec.AddrSpace, workload.PrefillPayload(spec))
}
