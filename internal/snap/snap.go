// Package snap is what every writer and reader of snapv1 shares: the
// magic/version framing, the error taxonomy, and the Cursor — one
// direction-agnostic position in a snapshot's bytes. snapv1 is the
// versioned binary image of a whole cluster: per-shard memory contents,
// BLEM state (CID + Replacement Area), COPR predictor tables, traffic
// counters, and tier residency. A snapshot restored through
// shard.RestoreEngineFrom or cluster.RestoreFrom behaves byte-identically
// to what it was taken from.
//
// The package knows no field of any other package. Each stateful
// package walks its own live fields through a Cursor, in wire order,
// with one method that serves both directions; the layout is the
// concatenation of those walks (all integers little-endian):
//
//	snap     magic "ATSNAP" | u16 version=2 | u32 engineCount | cluster |
//	         u32 CRC-32C of every byte before it
//	cluster  engines...
//	shard    engine  = core.Options | tier config? | 4 robust counters |
//	                   u32 shardCount | shards...
//	         shard   = memory | tier?
//	core     memory  = u64 n | n × (addr, flags, 2×32 B) | 8 counters |
//	                   blem | predictor?
//	blem     u16 CID | u64 n | n × (addr, bit) | 7 counters
//	copr     u32 n | n GI counters | PaPR table? | LiPR table? |
//	         5 × (hits, total)
//	         table   = tick | i32 sets | i32 ways |
//	                   sets×ways × (valid, key, A, B, used)
//	tier     u64 n | n × (addr, freq, 64 B) | u64 n | n × (addr, count) |
//	         decay clock | 6 counters
//
// A "?" section is preceded by a presence byte. Maps (stored lines,
// Replacement Area, freq counters) are written sorted by address, so
// encoding is deterministic; the near-tier lines are the single
// exception — they are written in recency order, least-recently-used
// first, because that order is semantic. Decoding enforces sortedness,
// flag ranges and counter ranges, so for any bytes a restore accepts,
// writing the restored state yields those bytes again.
//
// Canonical form alone does not catch a flipped bit: a flip inside a
// line's payload or a counter decodes to a valid, different state. So
// version 2 seals the image with a CRC-32C trailer, and Open refuses a
// mismatch before any walk runs. Version 1 images are version 2 without
// the trailer; Open still reads them, and writing one back seals it.
//
// Version-evolution rules: a new persisted field is one line in its
// owner's walk plus a Version bump; a reader rejects versions it does
// not know with ErrVersion (never guesses), and every count is vetted
// against the remaining input before anything is allocated for it, so
// truncated or corrupted snapshots fail cleanly instead of panicking or
// over-allocating.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Version is the current snapv1 format version.
const Version = 2

var magic = [6]byte{'A', 'T', 'S', 'N', 'A', 'P'}

// crcTable is the Castagnoli polynomial's table: CRC-32C, which
// hash/crc32 computes with the CPU's CRC instruction where there is one.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a snapshot the decoder cannot make sense of.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// ErrVersion reports a snapshot written by an unknown format version.
var ErrVersion = errors.New("snap: unsupported snapshot version")

// Cursor is a position in snapv1 bytes that either appends (encoding)
// or consumes (decoding). Every primitive takes a pointer to the field
// it carries, so one walk describes the layout for both directions.
// Encoding only ever reads through the pointers. Decoding is sticky:
// after the first error every primitive is a no-op that leaves its
// field untouched, so a walk checks Err once at the end — and loops on
// OK, so a bad count cannot spin.
type Cursor struct {
	b   []byte
	off int
	dec bool
	err error
}

// NewEncoder starts the image of a cluster of the given number of
// engines: the framing is written, the engines' sections follow.
func NewEncoder(engines int) *Cursor {
	c := &Cursor{}
	c.frame(engines)
	return c
}

// Open reads the whole of in — snapv1 has nothing a reader could stream
// on — checks the framing and, from version 2, the trailer, and returns
// a decoder positioned at the first of the engines sections it
// announces.
func Open(in io.Reader) (*Cursor, int, error) {
	b, err := io.ReadAll(in)
	if err != nil {
		return nil, 0, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	c := &Cursor{b: b, dec: true}
	engines := c.frame(0)
	return c, engines, c.err
}

// frame carries the magic, the format version and the engine count.
func (c *Cursor) frame(engines int) int {
	m := magic
	c.Raw(m[:])
	if m != magic {
		c.Fail("bad magic")
	}
	v := uint16(Version)
	c.U16(&v)
	switch {
	case c.err != nil || !c.dec || v == 1:
		// An earlier failure, an encode, or an unsealed version-1 image.
	case v == Version:
		c.unseal()
	default:
		c.err = fmt.Errorf("%w: got version %d, support 1 and %d", ErrVersion, v, Version)
	}
	return c.Count32(engines, "engine")
}

// unseal checks a sealed image's CRC-32C trailer and drops it from the
// input, so the walks that follow, and Finish, see only the body.
func (c *Cursor) unseal() {
	body := len(c.b) - 4
	if body < c.off {
		c.Fail("truncated before the %d-byte trailer", 4)
		return
	}
	if got, want := binary.LittleEndian.Uint32(c.b[body:]), crc32.Checksum(c.b[:body], crcTable); got != want {
		c.Fail("CRC-32C trailer %08x does not match the image's %08x", got, want)
		return
	}
	c.b = c.b[:body]
}

// Decoding reports the direction; walks guard the decoder-only work —
// allocating, and storing into maps and lists — with it.
func (c *Cursor) Decoding() bool { return c.dec }

// Err reports the first decode error; an encoder never has one.
func (c *Cursor) Err() error { return c.err }

// OK reports whether no error has been recorded yet.
func (c *Cursor) OK() bool { return c.err == nil }

// Fail records a decode error wrapping ErrCorrupt. Only the first one
// sticks, so checks that run on the zeroes read after it need no guard;
// and an encoder records none — it trusts the live state it walks — so
// a check written beside its field needs no direction guard either.
func (c *Cursor) Fail(format string, args ...any) {
	if c.dec && c.err == nil {
		c.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

// Remaining reports the input bytes not yet consumed.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// Grow makes room for n more encoded bytes, so a writer that knows its
// counts pays for one buffer instead of a doubling series.
func (c *Cursor) Grow(n int) {
	if !c.dec && cap(c.b)-len(c.b) < n {
		c.b = append(make([]byte, 0, len(c.b)+n), c.b...)
	}
}

// Bytes ends an encode: it returns everything encoded, followed by the
// CRC-32C trailer over it.
func (c *Cursor) Bytes() []byte {
	return binary.LittleEndian.AppendUint32(c.b, crc32.Checksum(c.b, crcTable))
}

// Finish ends a decode: the first error, or ErrCorrupt if input is left.
func (c *Cursor) Finish() error {
	if c.err == nil && c.Remaining() != 0 {
		c.Fail("%d trailing bytes after snapshot", c.Remaining())
	}
	return c.err
}

// take consumes the next n input bytes, or fails and returns nil.
func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.Remaining() < n {
		c.Fail("truncated at offset %d (need %d bytes, have %d)", c.off, n, c.Remaining())
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// Raw carries len(p) bytes verbatim.
func (c *Cursor) Raw(p []byte) {
	if !c.dec {
		c.b = append(c.b, p...)
		return
	}
	copy(p, c.take(len(p)))
}

func (c *Cursor) U8(p *uint8) {
	if !c.dec {
		c.b = append(c.b, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

func (c *Cursor) U16(p *uint16) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint16(c.b, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

func (c *Cursor) U32(p *uint32) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

func (c *Cursor) U64(p *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// I32 and I64 carry Go ints as two's-complement u32/u64.
func (c *Cursor) I32(p *int) {
	v := uint32(*p)
	c.U32(&v)
	if c.dec {
		*p = int(int32(v))
	}
}

func (c *Cursor) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	if c.dec {
		*p = int64(v)
	}
}

func (c *Cursor) F64(p *float64) {
	v := math.Float64bits(*p)
	c.U64(&v)
	if c.dec {
		*p = math.Float64frombits(v)
	}
}

// Str carries a string as a u8 length plus its bytes; decoding rejects
// lengths above max.
func (c *Cursor) Str(p *string, max int, what string) {
	n := uint8(len(*p))
	c.U8(&n)
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	if int(n) > max {
		c.Fail("%s length %d exceeds %d", what, n, max)
	}
	*p = string(c.take(int(n)))
}

// Bool carries one byte that must be 0 or 1.
func (c *Cursor) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if c.dec {
		if v > 1 {
			c.Fail("boolean field at offset %d not 0 or 1", c.off-1)
		}
		*p = v == 1
	}
}

// Flags carries up to eight booleans as one byte, bits[i] in bit i, and
// rejects a byte with any higher bit set.
func (c *Cursor) Flags(what string, bits ...*bool) {
	var v uint8
	for i, b := range bits {
		if *b {
			v |= 1 << i
		}
	}
	c.U8(&v)
	if !c.dec {
		return
	}
	if int(v) >= 1<<len(bits) {
		c.Fail("unknown %s flags %#x at offset %d", what, v, c.off-1)
	}
	for i, b := range bits {
		*b = v&(1<<i) != 0
	}
}

// bound vets a decoded element count against the remaining input, given
// the minimum encoded size of one element — a corrupted count can never
// force an over-allocation. An encoder's count passes through.
func (c *Cursor) bound(n uint64, minElem int, what string) int {
	if c.err != nil {
		return 0
	}
	if c.dec && n > uint64(c.Remaining()/minElem) {
		c.Fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return int(n)
}

// Count32 carries an element count as a u32 and returns the count in
// force: n when encoding, the decoded one — bounded at one byte an
// element, a safe floor — when decoding.
func (c *Cursor) Count32(n int, what string) int {
	v := uint32(n)
	c.U32(&v)
	return c.bound(uint64(v), 1, what)
}

// Count64 is Count32 with a u64 on the wire and the caller's floor on
// an element's encoded size; the caller allocates only what it returns.
func (c *Cursor) Count64(n, minElem int, what string) int {
	v := uint64(n)
	c.U64(&v)
	return c.bound(v, minElem, what)
}

// Section carries the presence byte of an optional section whose
// presence the configuration already fixes, and reports whether the
// section follows; decoding fails unless the byte agrees with configured.
func (c *Cursor) Section(configured bool, what string) bool {
	has := configured
	c.Bool(&has)
	if c.err == nil && has != configured {
		c.Fail("%s presence (%v) does not match configuration (%v)", what, has, configured)
	}
	return has && c.err == nil
}

// Map carries a map keyed by address the way every map travels: its
// entry count, then its entries sorted by address — so encoding is
// deterministic — with elem carrying each value. Decoding vets the count
// at minElem encoded bytes an entry before allocating the map, and
// enforces strict ascent, so what it accepts is canonical.
func Map[V any](c *Cursor, m *map[uint64]V, minElem int, what string, elem func(addr uint64, v *V)) {
	var addrs []uint64
	if !c.dec {
		addrs = make([]uint64, 0, len(*m))
		for a := range *m {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
	}
	n := c.Count64(len(addrs), minElem, what)
	if c.dec && n > 0 {
		*m = make(map[uint64]V, n)
	}
	var prev uint64
	var v V // one value for the whole walk: elem's pointer makes it escape
	for i := 0; c.err == nil && i < n; i++ {
		var a uint64
		if !c.dec {
			a = addrs[i]
		}
		c.U64(&a)
		if i > 0 && a <= prev {
			c.Fail("%s addresses not strictly ascending at index %d", what, i)
		}
		prev = a
		v = (*m)[a]
		elem(a, &v)
		if c.dec {
			(*m)[a] = v
		}
	}
}
