// Package tier implements a two-tier memory backend for the CXL
// memory-expansion scenario: a small uncompressed near tier (local
// DRAM) in front of a large compressed far tier (a core.Memory with
// Attaché-style metadata elision) that sits behind a slower link.
//
// Residency is exclusive — every line lives in exactly one tier.
// Lines are born in the far tier; a promotion policy decides when an
// accessed far line moves near (and which near line demotes to make
// room). Three policies are provided:
//
//   - lru:    promote on every access, evict the least-recently-used
//     near line. The classic hot-tier shape.
//   - freq:   promote once an address has been touched Threshold times,
//     tracked with decaying counters so stale heat drains away. Evicts
//     the least-frequently-used near line (LRU tie-break).
//   - static: pin-by-prefix — only addresses whose page prefix matches
//     the configured pin go near; nothing ever demotes.
//
// A configurable LinkModel (per-access latency, bandwidth multiplier,
// per-byte energy) turns the traffic split into modeled far-link cost
// and energy figures, surfaced via Snapshot.
//
// A Memory is NOT safe for concurrent use, exactly like core.Memory;
// the sharded engine guards each shard's tier with its execution lock.
package tier

import (
	"fmt"
	"math"

	"attache/internal/core"
	"attache/internal/stats"
)

// LineSize mirrors the framework's access granularity.
const LineSize = core.LineSize

// Policy names.
const (
	PolicyLRU    = "lru"
	PolicyFreq   = "freq"
	PolicyStatic = "static"
)

// LinkModel prices far-tier traffic: the far link is slower (latency),
// narrower (bandwidth multiplier on bytes moved), and costlier per byte
// (energy) than near DRAM. All figures are modeled, not measured.
type LinkModel struct {
	// FarLatencyNs is the added latency charged per far-tier access.
	FarLatencyNs float64 `json:"far_latency_ns"`
	// FarBandwidthMult scales far-link bytes (>= 1 models link framing
	// and protocol overhead on the CXL path).
	FarBandwidthMult float64 `json:"far_bandwidth_mult"`
	// NearEnergyPerByte / FarEnergyPerByte are in pJ/byte.
	NearEnergyPerByte float64 `json:"near_energy_per_byte"`
	FarEnergyPerByte  float64 `json:"far_energy_per_byte"`
}

// DefaultLink returns a CXL-flavored cost model: ~250 ns added link
// latency, 1.0× bandwidth framing, and far accesses ~5× the energy of
// near DRAM per byte.
func DefaultLink() LinkModel {
	return LinkModel{
		FarLatencyNs:      250,
		FarBandwidthMult:  1.0,
		NearEnergyPerByte: 0.3,
		FarEnergyPerByte:  1.5,
	}
}

// Config describes a two-tier backend. The zero value is invalid; see
// Validate. NearLines is the engine-level near-tier capacity in lines:
// 0 means a zero-capacity near tier (every access goes far — by
// construction bit-identical to a plain compressed engine), and a
// negative value means unbounded.
type Config struct {
	NearLines int64  `json:"near_lines"`
	Policy    string `json:"policy"` // "" defaults to lru

	// FreqThreshold is the access count at which the freq policy
	// promotes (0 defaults to 2); FreqDecayEvery halves all counters
	// after that many tier accesses (0 defaults to 1024).
	FreqThreshold  uint64 `json:"freq_threshold,omitempty"`
	FreqDecayEvery uint64 `json:"freq_decay_every,omitempty"`

	// PinShift/PinPrefix configure the static policy: an address is
	// pinned near iff addr>>PinShift == PinPrefix.
	PinShift  uint32 `json:"pin_shift,omitempty"`
	PinPrefix uint64 `json:"pin_prefix,omitempty"`

	// Link prices far traffic; the zero value takes DefaultLink.
	Link LinkModel `json:"link"`
}

// WithDefaults fills unset fields with their documented defaults.
func (c Config) WithDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyLRU
	}
	if c.FreqThreshold == 0 {
		c.FreqThreshold = 2
	}
	if c.FreqDecayEvery == 0 {
		c.FreqDecayEvery = 1024
	}
	if c.Link == (LinkModel{}) {
		c.Link = DefaultLink()
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.Policy {
	case "", PolicyLRU, PolicyFreq, PolicyStatic:
	default:
		return fmt.Errorf("tier: unknown policy %q (want lru, freq, or static)", c.Policy)
	}
	if c.PinShift > 63 {
		return fmt.Errorf("tier: pin shift %d out of range [0,63]", c.PinShift)
	}
	// NaN passes every "< 0" test and would reach the stats document,
	// which encoding/json cannot encode; so every field must be a finite
	// non-negative number.
	for _, f := range []float64{c.Link.FarBandwidthMult, c.Link.FarLatencyNs,
		c.Link.NearEnergyPerByte, c.Link.FarEnergyPerByte} {
		if !(f >= 0) || math.IsInf(f, 1) {
			return fmt.Errorf("tier: link model fields must be finite and non-negative")
		}
	}
	return nil
}

// node is one near-resident line on the intrusive recency list (MRU at
// head). freq backs the freq policy's victim choice and is maintained
// for every policy, so snapshots are policy-independent.
type node struct {
	addr       uint64
	freq       uint64
	prev, next *node
	data       [LineSize]byte
}

// Memory is the two-tier backend: an uncompressed near tier in front of
// a compressed far core.Memory, with exclusive residency.
type Memory struct {
	cfg Config
	far *core.Memory

	near       map[uint64]*node
	head, tail *node

	// farFreq tracks access counts for far-resident addresses (freq
	// policy only); accesses is the decay clock.
	farFreq  map[uint64]uint64
	accesses uint64

	// c holds the six traffic counters in their Snapshot fields; every
	// other Snapshot field is derived, filled in only by Snapshot().
	c Snapshot
}

// NewMemory builds a tiered memory in front of far. The far memory must
// be exclusively owned by the tier from now on.
func NewMemory(cfg Config, far *core.Memory) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	m := &Memory{cfg: cfg, far: far, near: make(map[uint64]*node)}
	if cfg.Policy == PolicyFreq {
		m.farFreq = make(map[uint64]uint64)
	}
	return m, nil
}

// list helpers -----------------------------------------------------------

func (m *Memory) pushFront(n *node) {
	n.prev = nil
	n.next = m.head
	if m.head != nil {
		m.head.prev = n
	}
	m.head = n
	if m.tail == nil {
		m.tail = n
	}
}

func (m *Memory) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (m *Memory) moveToFront(n *node) {
	if m.head == n {
		return
	}
	m.unlink(n)
	m.pushFront(n)
}

// policy helpers ---------------------------------------------------------

func (m *Memory) pinned(addr uint64) bool {
	return addr>>uint(m.cfg.PinShift) == m.cfg.PinPrefix
}

// tick advances the freq policy's decay clock; after FreqDecayEvery
// tier accesses every counter halves and zeroed far counters drop, so
// the tracking map stays bounded by the working set's recent heat.
func (m *Memory) tick() {
	if m.cfg.Policy != PolicyFreq {
		return
	}
	m.accesses++
	if m.accesses < m.cfg.FreqDecayEvery {
		return
	}
	m.accesses = 0
	for n := m.head; n != nil; n = n.next {
		n.freq >>= 1
	}
	for a, c := range m.farFreq {
		c >>= 1
		if c == 0 {
			delete(m.farFreq, a)
		} else {
			m.farFreq[a] = c
		}
	}
}

// noteFar records an access to a far-resident address and reports
// whether the policy wants it near. Capacity is NOT checked here —
// install handles eviction — except for static, which never evicts and
// therefore only admits while there is room.
func (m *Memory) noteFar(addr uint64) bool {
	m.tick()
	switch m.cfg.Policy {
	case PolicyLRU:
		return m.cfg.NearLines != 0
	case PolicyFreq:
		if m.cfg.NearLines == 0 {
			return false
		}
		m.farFreq[addr]++
		return m.farFreq[addr] >= m.cfg.FreqThreshold
	case PolicyStatic:
		if !m.pinned(addr) {
			return false
		}
		return m.cfg.NearLines < 0 || int64(len(m.near)) < m.cfg.NearLines
	}
	return false
}

// victim picks the near line to demote when the tier is full. ok=false
// blocks the promotion instead (static never demotes).
func (m *Memory) victim() (*node, bool) {
	switch m.cfg.Policy {
	case PolicyLRU:
		return m.tail, m.tail != nil
	case PolicyFreq:
		// Least-frequent wins; ties break toward the least-recently-used
		// end of the list (scan starts at the tail and strict < keeps the
		// earliest minimum), so victim choice is fully deterministic.
		var best *node
		for n := m.tail; n != nil; n = n.prev {
			if best == nil || n.freq < best.freq {
				best = n
			}
		}
		return best, best != nil
	case PolicyStatic:
		return nil, false
	}
	return nil, false
}

// install moves a line into the near tier (the caller already holds its
// 64 raw bytes), demoting a victim if the tier is full and deleting any
// far copy so residency stays exclusive. Counts one promotion. It
// reports false when the policy declined to make room (the line stays
// far); any error comes from the demotion writeback.
func (m *Memory) install(addr uint64, data []byte) (bool, error) {
	var n *node // the demoted victim's node, reused; fresh while the tier fills
	if m.cfg.NearLines >= 0 && int64(len(m.near)) >= m.cfg.NearLines {
		v, ok := m.victim()
		if !ok {
			return false, nil
		}
		if err := m.far.Write(v.addr, v.data[:]); err != nil {
			return false, fmt.Errorf("tier: demoting line %#x: %w", v.addr, err)
		}
		m.unlink(v)
		delete(m.near, v.addr)
		m.c.Demotions++
		n = v
	} else {
		n = new(node)
	}
	*n = node{addr: addr}
	copy(n.data[:], data)
	if m.cfg.Policy == PolicyFreq {
		n.freq = m.farFreq[addr]
		delete(m.farFreq, addr)
	}
	m.near[addr] = n
	m.pushFront(n)
	m.far.Delete(addr)
	m.c.Promotions++
	return true, nil
}

// Read loads the 64-byte line at lineAddr from whichever tier holds it
// into a freshly allocated slice. Reading a never-written line returns
// core's ErrNeverWritten.
func (m *Memory) Read(lineAddr uint64) ([]byte, error) {
	data := new([LineSize]byte)
	if err := m.ReadInto(data, lineAddr); err != nil {
		return nil, err
	}
	return data[:], nil
}

// ReadInto is the one read path (Read wraps it): it loads the line into
// dst without allocating beyond what a promotion installs. On an error
// dst holds unspecified bytes.
func (m *Memory) ReadInto(dst *[LineSize]byte, lineAddr uint64) error {
	if n := m.near[lineAddr]; n != nil {
		m.tick()
		m.moveToFront(n)
		n.freq++
		m.c.NearReads++
		*dst = n.data
		return nil
	}
	if err := m.far.ReadInto(dst, lineAddr); err != nil {
		return err
	}
	m.c.FarReads++
	if m.noteFar(lineAddr) {
		if _, err := m.install(lineAddr, dst[:]); err != nil {
			return err
		}
	}
	return nil
}

// Write stores a 64-byte line at lineAddr. Near-resident lines update
// in place; other lines write far unless the policy write-allocates
// them into the near tier (counted as a promotion — the line enters the
// near tier — that costs no far read).
func (m *Memory) Write(lineAddr uint64, data []byte) error {
	if len(data) != LineSize {
		// Delegate validation so the error is byte-identical to the
		// untiered engine's; far.Write rejects before mutating anything.
		return m.far.Write(lineAddr, data)
	}
	if n := m.near[lineAddr]; n != nil {
		m.tick()
		m.moveToFront(n)
		n.freq++
		copy(n.data[:], data)
		m.c.NearWrites++
		return nil
	}
	if m.noteFar(lineAddr) {
		installed, err := m.install(lineAddr, data)
		if err != nil {
			return err
		}
		if installed {
			m.c.NearWrites++
			return nil
		}
	}
	if err := m.far.Write(lineAddr, data); err != nil {
		return err
	}
	m.c.FarWrites++
	return nil
}

// Snapshot captures the tier's traffic split and modeled link costs.
// Policy and NearCapacity do not merge by summing; Accumulate fixes
// them up.
type Snapshot struct {
	Policy       string `json:"policy"`
	NearCapacity int64  `json:"near_capacity"` // -1 means unbounded
	NearResident uint64 `json:"near_resident" prom:"attached_tier_near_resident,gauge" help:"Lines currently resident in the near tier."`
	FarResident  uint64 `json:"far_resident" prom:"attached_tier_far_resident,gauge" help:"Lines currently resident in the far tier."`

	NearReads  uint64 `json:"near_reads" prom:"attached_tier_near_reads_total,counter" help:"Line reads served from the near (uncompressed) tier."`
	NearWrites uint64 `json:"near_writes" prom:"attached_tier_near_writes_total,counter" help:"Line writes absorbed by the near tier."`
	// FarReads/FarWrites are client reads served far and client writes
	// landing far.
	FarReads   uint64 `json:"far_reads" prom:"attached_tier_far_reads_total,counter" help:"Line reads that crossed the far link."`
	FarWrites  uint64 `json:"far_writes" prom:"attached_tier_far_writes_total,counter" help:"Line writes that crossed the far link."`
	Promotions uint64 `json:"promotions" prom:"attached_tier_promotions_total,counter" help:"Lines promoted far-to-near."`
	Demotions  uint64 `json:"demotions" prom:"attached_tier_demotions_total,counter" help:"Lines demoted near-to-far."`

	// FarAccesses/FarLinkBlocks are the far memory's own totals
	// (client ops plus demotion writebacks); the float figures apply
	// the LinkModel to them.
	FarAccesses   uint64  `json:"far_accesses"`
	FarLinkBlocks uint64  `json:"far_link_blocks"`
	FarLinkBytes  float64 `json:"far_link_bytes" prom:"attached_tier_far_link_bytes,gauge" help:"Modeled bytes moved across the far link (bandwidth multiplier applied)."`
	FarLatencyNs  float64 `json:"far_latency_ns" prom:"attached_tier_far_latency_ns,gauge" help:"Modeled cumulative far-link latency in nanoseconds."`
	NearBytes     uint64  `json:"near_bytes"`
	EnergyPJ      float64 `json:"energy_pj" prom:"attached_tier_energy_pj,gauge" help:"Modeled cumulative memory-traffic energy in picojoules."`
}

// Snapshot derives the tier snapshot from the live counters and the far
// memory's own stats. Like every Memory method it must not race with
// Read/Write.
func (m *Memory) Snapshot() Snapshot {
	far := m.far.StatsSnapshot()
	cap64 := m.cfg.NearLines
	if cap64 < 0 {
		cap64 = -1
	}
	s := m.c
	s.Policy = m.cfg.Policy
	s.NearCapacity = cap64
	s.NearResident = uint64(len(m.near))
	s.FarResident = far.Lines
	s.FarAccesses = far.Reads + far.Writes
	s.FarLinkBlocks = far.BlocksRead + far.BlocksWritten
	s.FarLinkBytes = float64(s.FarLinkBlocks*core.SubRankBlock) * m.cfg.Link.FarBandwidthMult
	s.FarLatencyNs = float64(s.FarAccesses) * m.cfg.Link.FarLatencyNs
	// Near traffic: every near read/write moves one line, and every
	// promotion/demotion installs or extracts one.
	s.NearBytes = (s.NearReads + s.NearWrites + s.Promotions + s.Demotions) * LineSize
	s.EnergyPJ = float64(s.NearBytes)*m.cfg.Link.NearEnergyPerByte +
		s.FarLinkBytes*m.cfg.Link.FarEnergyPerByte
	return s
}

// Accumulate folds another tier snapshot into s, so per-shard (and
// per-instance) snapshots merge into engine- and fleet-level figures.
// Policy is kept from the receiver; an unbounded capacity on either
// side makes the merged capacity unbounded.
func (s *Snapshot) Accumulate(o Snapshot) {
	if s.Policy == "" {
		s.Policy = o.Policy
	}
	unbounded := s.NearCapacity < 0 || o.NearCapacity < 0
	stats.Add(s, o)
	if unbounded {
		s.NearCapacity = -1
	}
}
