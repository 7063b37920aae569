// Package snap implements snapv1, the versioned binary serialization of
// a full engine: per-shard memory contents, BLEM state (CID +
// Replacement Area), COPR predictor tables, traffic counters, and tier
// residency. A snapshot restored through shard.RestoreEngine behaves
// byte-identically to the engine it was taken from.
//
// Format (all integers little-endian):
//
//	magic "ATSNAP" | u16 version=1 | u32 engineCount | engines...
//
// Each engine serializes its core.Options (so restore can rebuild the
// same framework), the engine-level robust counters, and one section
// per shard. Maps (Replacement Area, freq counters) are sorted by
// address, and stored lines are sorted by address, so encoding is
// deterministic; the near-tier lines are the single exception — they
// encode in recency order, least-recently-used first, because that
// order is semantic. The decoder enforces sortedness, so for any bytes
// it accepts, decode∘encode is the identity.
//
// Version-evolution rules: additions bump the u16 version; a decoder
// rejects versions it does not know with ErrVersion (never guesses),
// and every count field is validated against the remaining input before
// allocation, so truncated or corrupted snapshots fail cleanly instead
// of panicking or over-allocating.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"attache/internal/copr"
	"attache/internal/core"
	"attache/internal/tier"
)

// Version is the current snapv1 format version.
const Version = 1

var magic = [6]byte{'A', 'T', 'S', 'N', 'A', 'P'}

// ErrCorrupt reports a snapshot the decoder cannot make sense of.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// ErrVersion reports a snapshot written by an unknown format version.
var ErrVersion = errors.New("snap: unsupported snapshot version")

// ShardState is one shard's serialized state.
type ShardState struct {
	Mem *core.MemoryState
	// Tier is nil for untiered engines.
	Tier *tier.State
}

// EngineState is one engine's serialized state: enough to rebuild the
// framework (Opts, Tier) plus the per-shard contents.
type EngineState struct {
	Opts core.Options
	// Tier is the engine-level tier configuration; nil means untiered.
	Tier *tier.Config
	// Robust holds sheds, canceled, injectedErrs, injectedDelays.
	Robust [4]uint64
	Shards []ShardState
}

// ClusterState is the top-level snapshot container: one EngineState per
// cluster instance (a single-engine snapshot is a 1-element cluster).
type ClusterState struct {
	Engines []*EngineState
}

// EncodeBytes serializes a snapshot to its canonical byte form.
func EncodeBytes(cs *ClusterState) []byte {
	c := &codec{}
	walkCluster(c, cs)
	return c.b
}

// Encode writes the canonical serialization of cs to out.
func Encode(out io.Writer, cs *ClusterState) error {
	_, err := out.Write(EncodeBytes(cs))
	return err
}

// DecodeBytes parses a canonical snapshot. It never panics: truncated,
// corrupted, or version-skewed input returns an error.
func DecodeBytes(b []byte) (*ClusterState, error) {
	c := &codec{b: b, dec: true}
	cs := &ClusterState{}
	walkCluster(c, cs)
	if c.err != nil {
		return nil, c.err
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after snapshot: %w", c.remaining(), ErrCorrupt)
	}
	return cs, nil
}

// Decode reads all of in and parses it as a snapshot.
func Decode(in io.Reader) (*ClusterState, error) {
	b, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	return DecodeBytes(b)
}

// ---------------------------------------------------------------------
// the codec: one cursor, two directions

// codec is a cursor over snapv1 bytes that either appends to b
// (encoding) or consumes b from off (decoding). Every primitive takes a
// pointer to the field it carries, so one walk describes the layout for
// both directions. Encoding only ever reads through the pointers: a
// state being encoded may be shared.
type codec struct {
	b   []byte
	off int
	dec bool
	err error // decode only; once set, every primitive is a no-op
}

// fail records a decode error; only the first one sticks, so checks
// that run on the zeroes read after it need no guard of their own.
// Validation is the decoder's job alone — the encoder trusts its input
// — so callers guard checks with c.dec.
func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

func (c *codec) remaining() int { return len(c.b) - c.off }

// take consumes the next n input bytes, or fails and returns nil.
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.remaining() < n {
		c.fail("truncated at offset %d (need %d bytes, have %d)", c.off, n, c.remaining())
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// raw carries len(p) bytes verbatim.
func (c *codec) raw(p []byte) {
	if !c.dec {
		c.b = append(c.b, p...)
		return
	}
	copy(p, c.take(len(p)))
}

func (c *codec) u8(p *uint8) {
	if !c.dec {
		c.b = append(c.b, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

func (c *codec) u16(p *uint16) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint16(c.b, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

func (c *codec) u32(p *uint32) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

func (c *codec) u64(p *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// i32 and i64 carry Go ints as two's-complement u32/u64.
func (c *codec) i32(p *int) {
	v := uint32(*p)
	c.u32(&v)
	if c.dec {
		*p = int(int32(v))
	}
}

func (c *codec) i64(p *int64) {
	v := uint64(*p)
	c.u64(&v)
	if c.dec {
		*p = int64(v)
	}
}

func (c *codec) f64(p *float64) {
	v := math.Float64bits(*p)
	c.u64(&v)
	if c.dec {
		*p = math.Float64frombits(v)
	}
}

// str carries a string as a u8 length plus its bytes; decoding rejects
// lengths above max.
func (c *codec) str(p *string, max int, what string) {
	n := uint8(len(*p))
	c.u8(&n)
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	if int(n) > max {
		c.fail("%s length %d exceeds %d", what, n, max)
	}
	*p = string(c.take(int(n)))
}

// bool carries one byte that must be 0 or 1.
func (c *codec) bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.u8(&v)
	if c.dec {
		if v > 1 {
			c.fail("boolean field at offset %d not 0 or 1", c.off-1)
		}
		*p = v == 1
	}
}

// flags carries up to eight booleans as one byte, bits[i] in bit i, and
// rejects a byte with any higher bit set.
func (c *codec) flags(what string, bits ...*bool) {
	var v uint8
	for i, b := range bits {
		if *b {
			v |= 1 << i
		}
	}
	c.u8(&v)
	if !c.dec {
		return
	}
	if int(v) >= 1<<len(bits) {
		c.fail("unknown %s flags %#x at offset %d", what, v, c.off-1)
	}
	for i, b := range bits {
		*b = v&(1<<i) != 0
	}
}

// bound vets a decoded element count against the remaining input, given
// the minimum encoded size of one element — a corrupted count can never
// force an over-allocation. An encoder's count passes through.
func (c *codec) bound(n uint64, minElem int, what string) int {
	if c.err != nil {
		return 0
	}
	if c.dec && n > uint64(c.remaining()/minElem) {
		c.fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return int(n)
}

// count32 carries an element count as a u32 and returns it, bounded at
// one byte an element, a safe floor.
func (c *codec) count32(n int, what string) int {
	v := uint32(n)
	c.u32(&v)
	return c.bound(uint64(v), 1, what)
}

// slice carries len(*p) as a u64 count and returns it; decoding bounds
// it and only then allocates the elements the walk goes on to fill in.
func slice[T any](c *codec, p *[]T, minElem int, what string) int {
	v := uint64(len(*p))
	c.u64(&v)
	n := c.bound(v, minElem, what)
	if c.dec {
		*p = make([]T, n)
	}
	return n
}

// present carries the presence byte of an optional section and reports
// whether the section follows; decoding allocates it.
func present[T any](c *codec, p **T) bool {
	has := *p != nil
	c.bool(&has)
	if c.dec && has && c.err == nil {
		*p = new(T)
	}
	return has && c.err == nil
}

// ---------------------------------------------------------------------
// the walk: the snapv1 layout, written once
//
// EncodeBytes and DecodeBytes run the same walk* functions, so the two
// directions cannot drift apart. Adding a field is one line here (plus a
// Version bump); `if c.dec` marks the decoder-only work: allocation and
// validation.

func walkCluster(c *codec, cs *ClusterState) {
	m := magic
	c.raw(m[:])
	if c.dec && m != magic {
		c.fail("bad magic")
	}
	v := uint16(Version)
	c.u16(&v)
	if c.err == nil && v != Version {
		c.err = fmt.Errorf("%w: got version %d, support %d", ErrVersion, v, Version)
	}
	n := c.count32(len(cs.Engines), "engine")
	for i := 0; c.err == nil && i < n; i++ {
		if c.dec {
			cs.Engines = append(cs.Engines, &EngineState{})
		}
		walkEngine(c, cs.Engines[i])
	}
}

func walkEngine(c *codec, e *EngineState) {
	o := &e.Opts
	c.i32(&o.CIDBits)
	c.i64(&o.Seed)
	c.flags("option", &o.DisablePredictor, &o.ExtendedCompression)
	p := &o.Predictor
	c.i64(&p.MemorySize)
	c.i32(&p.GICounters)
	c.u8(&p.GIThreshold)
	c.i32(&p.PaPRBytes)
	c.i32(&p.PaPRWays)
	c.i32(&p.LiPRBytes)
	c.i32(&p.LiPRWays)
	c.flags("predictor enable", &p.EnableGI, &p.EnablePaPR, &p.EnableLiPR)

	if present(c, &e.Tier) {
		t := e.Tier
		c.i64(&t.NearLines)
		c.str(&t.Policy, 32, "tier policy name")
		c.u64(&t.FreqThreshold)
		c.u64(&t.FreqDecayEvery)
		c.u32(&t.PinShift)
		c.u64(&t.PinPrefix)
		c.f64(&t.Link.FarLatencyNs)
		c.f64(&t.Link.FarBandwidthMult)
		c.f64(&t.Link.NearEnergyPerByte)
		c.f64(&t.Link.FarEnergyPerByte)
	}
	for i := range e.Robust {
		c.u64(&e.Robust[i])
	}
	n := c.count32(len(e.Shards), "shard")
	for i := 0; c.err == nil && i < n; i++ {
		if c.dec {
			e.Shards = append(e.Shards, ShardState{Mem: &core.MemoryState{}})
		}
		walkShard(c, &e.Shards[i], e.Tier != nil)
	}
}

func walkShard(c *codec, s *ShardState, tiered bool) {
	m := s.Mem
	n := slice(c, &m.Lines, 8+1+core.LineSize, "line")
	for i := 0; c.err == nil && i < n; i++ {
		l := &m.Lines[i]
		c.u64(&l.Addr)
		if c.dec && i > 0 && l.Addr <= m.Lines[i-1].Addr {
			c.fail("lines not strictly sorted at index %d", i)
		}
		c.flags("line", &l.Compressed, &l.Collision)
		if c.dec && l.Compressed && l.Collision {
			c.fail("line %d both compressed and collided", i)
		}
		c.raw(l.Blocks[0][:])
		c.raw(l.Blocks[1][:])
	}
	c.u64(&m.Stats.Reads)
	c.u64(&m.Stats.Writes)
	c.u64(&m.Stats.BlocksRead)
	c.u64(&m.Stats.BlocksWritten)
	c.u64(&m.Stats.Mispredictions)
	c.u64(&m.Stats.RAAccesses)
	c.u64(&m.Stats.CompressedLines)
	c.u64(&m.Stats.RAOccupancy)
	if c.dec {
		m.Stats.Lines = uint64(len(m.Lines))
	}

	// The Replacement Area is a map; on the wire it is its entries
	// sorted by address.
	c.u16(&m.Blem.CID)
	var ra []uint64
	if !c.dec {
		ra = make([]uint64, 0, len(m.Blem.RA))
		for a := range m.Blem.RA {
			ra = append(ra, a)
		}
		sort.Slice(ra, func(i, j int) bool { return ra[i] < ra[j] })
	}
	n = slice(c, &ra, 9, "RA entry")
	if c.dec {
		m.Blem.RA = make(map[uint64]bool, n)
	}
	for i := 0; c.err == nil && i < n; i++ {
		c.u64(&ra[i])
		if c.dec && i > 0 && ra[i] <= ra[i-1] {
			c.fail("RA entries not strictly sorted at index %d", i)
		}
		v := m.Blem.RA[ra[i]]
		c.bool(&v)
		if c.dec {
			m.Blem.RA[ra[i]] = v
		}
	}
	for i := range m.Blem.Stats {
		c.u64(&m.Blem.Stats[i])
	}

	if present(c, &m.Copr) {
		p := m.Copr
		n = c.count32(len(p.GI), "GI counter")
		if c.dec {
			p.GI = make([]uint8, n)
		}
		c.raw(p.GI)
		walkTable(c, &p.PaPR, "PaPR")
		walkTable(c, &p.LiPR, "LiPR")
		c.u64(&p.Overall.Hits)
		c.u64(&p.Overall.Total)
		for i := range p.BySource {
			c.u64(&p.BySource[i].Hits)
			c.u64(&p.BySource[i].Total)
		}
	}

	has := present(c, &s.Tier)
	if c.dec && has != tiered {
		c.fail("shard tier-state presence (%v) disagrees with engine tier config (%v)", has, tiered)
	}
	if has {
		t := s.Tier
		n = slice(c, &t.Near, 8+8+tier.LineSize, "near line")
		for i := 0; c.err == nil && i < n; i++ {
			// Recency order, least recently used first: no sortedness to check.
			c.u64(&t.Near[i].Addr)
			c.u64(&t.Near[i].Freq)
			c.raw(t.Near[i].Data[:])
		}
		n = slice(c, &t.FarFreq, 16, "freq counter")
		for i := 0; c.err == nil && i < n; i++ {
			c.u64(&t.FarFreq[i].Addr)
			if c.dec && i > 0 && t.FarFreq[i].Addr <= t.FarFreq[i-1].Addr {
				c.fail("freq counters not strictly sorted at index %d", i)
			}
			c.u64(&t.FarFreq[i].Count)
		}
		c.u64(&t.FreqOps)
		for i := range t.Counters {
			c.u64(&t.Counters[i])
		}
	}
}

func walkTable(c *codec, pt **copr.TableState, what string) {
	if !present(c, pt) {
		return
	}
	t := *pt
	c.u64(&t.Tick)
	c.i32(&t.Sets)
	c.i32(&t.Ways)
	n := len(t.Entries)
	if c.dec {
		const maxDim = 1 << 24
		if t.Sets < 0 || t.Sets > maxDim || t.Ways < 0 || t.Ways > maxDim {
			c.fail("%s table geometry %dx%d out of range", what, uint32(t.Sets), uint32(t.Ways))
		}
		n = c.bound(uint64(t.Sets)*uint64(t.Ways), 33, what+" table entry")
		t.Entries = make([]copr.EntryState, n)
	}
	for i := 0; c.err == nil && i < n; i++ {
		e := &t.Entries[i]
		c.bool(&e.Valid)
		c.u64(&e.Key)
		c.u64(&e.A)
		c.u64(&e.B)
		c.u64(&e.Used)
	}
}
