// Package blem implements the Blended Metadata Engine (paper §IV-A/B),
// the first component of the Attaché framework. BLEM stores a line's
// compression metadata inside the line itself by interpreting its first
// two bytes as a Metadata-Header:
//
//	bit 0..CIDBits-1 : Compression ID (CID) — random boot-time constant
//	bit CIDBits      : Exclusive ID (XID) — marks CID collisions
//	remaining bits   : optional information bits (Table I)
//
// Compressed lines are stored as CID ‖ XID=0 ‖ payload in one 32-byte
// sub-rank block. Uncompressed lines are stored verbatim unless their
// (scrambled) leading bits collide with the CID, in which case the XID
// bit position is overwritten with 1 and the displaced data bit parks in
// the direct-mapped Replacement Area (1 bit per line, 1/512 of capacity).
package blem

import (
	"fmt"
	"math/rand"

	"attache/internal/stats"
)

// Geometry shared with the rest of the simulator.
const (
	LineSize    = 64
	SubRankSize = 32
	HeaderBytes = 2
	// MaxPayload is the largest packed payload that fits beside the
	// header in one sub-rank: the paper's 30-byte target.
	MaxPayload = SubRankSize - HeaderBytes
)

// Class is BLEM's verdict about a stored line, decided from the first
// sub-rank block alone.
type Class uint8

const (
	// ClassUncompressed: leading bits do not match the CID; the line is
	// stored raw across both sub-ranks.
	ClassUncompressed Class = iota
	// ClassCompressed: CID matches and XID is 0; bytes 2..31 of the block
	// hold the packed compressed payload.
	ClassCompressed
	// ClassCollision: CID matches and XID is 1; the line is raw data that
	// happened to collide, and its true bit at the XID position lives in
	// the Replacement Area.
	ClassCollision
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassUncompressed:
		return "uncompressed"
	case ClassCompressed:
		return "compressed"
	case ClassCollision:
		return "collision"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Stats counts BLEM activity; the Replacement Area counters are the
// paper's "0.003% additional accesses" claim made measurable.
type Stats struct {
	Writes           stats.Counter // lines written through BLEM
	CompressedWrites stats.Counter
	Collisions       stats.Counter // collision inserts on write
	RAWrites         stats.Counter
	Reads            stats.Counter
	CollisionReads   stats.Counter // reads that needed the RA
	RAReads          stats.Counter
}

// ReplacementArea stores the data bits displaced by XID inserts. Every
// line in the memory system indexes one bit, direct-mapped (§IV-A7); we
// materialize only the touched entries.
type ReplacementArea struct {
	bits map[uint64]bool
}

// NewReplacementArea returns an empty replacement area.
func NewReplacementArea() *ReplacementArea {
	return &ReplacementArea{bits: make(map[uint64]bool)}
}

// Store parks the displaced bit for a line.
func (ra *ReplacementArea) Store(lineAddr uint64, bit bool) { ra.bits[lineAddr] = bit }

// Load retrieves the displaced bit for a line. Loading an address that was
// never stored returns false — matching hardware, where the direct-mapped
// bit exists (zero-initialized) for every line.
func (ra *ReplacementArea) Load(lineAddr uint64) bool { return ra.bits[lineAddr] }

// Len reports how many entries have been touched.
func (ra *ReplacementArea) Len() int { return len(ra.bits) }

// Engine is the Blended Metadata Engine for one memory controller.
type Engine struct {
	cidBits int
	cid     uint16 // low cidBits bits hold the ID
	ra      *ReplacementArea
	Stats   Stats
}

// NewEngine creates a BLEM engine with a CID of the given width drawn from
// seed, standing in for the boot-time random choice. CID widths from 1 to
// 15 bits are supported (Table I trades width for information bits).
func NewEngine(cidBits int, seed int64) *Engine {
	if cidBits < 1 || cidBits > 15 {
		panic(fmt.Sprintf("blem: CID width %d out of range [1,15]", cidBits))
	}
	rng := rand.New(rand.NewSource(seed))
	return &Engine{
		cidBits: cidBits,
		cid:     uint16(rng.Intn(1 << uint(cidBits))),
		ra:      NewReplacementArea(),
	}
}

// ReplacementArea exposes the engine's RA, mainly for tests and capacity
// accounting.
func (e *Engine) ReplacementArea() *ReplacementArea { return e.ra }

// CollisionProbability reports the analytic per-access probability that an
// uncompressed (scrambled) line collides with a CID of the given width:
// 2^-bits (Fig. 8 and Table I).
func CollisionProbability(bits int) float64 {
	return 1 / float64(uint64(1)<<uint(bits))
}

// header16 reads the first two stored bytes as a big-endian 16-bit value.
func header16(block []byte) uint16 {
	return uint16(block[0])<<8 | uint16(block[1])
}

// topBits extracts the leading cidBits bits of a block.
func (e *Engine) topBits(block []byte) uint16 {
	return header16(block) >> uint(16-e.cidBits)
}

// xidBit reports the XID bit (bit position cidBits, MSB-first).
func (e *Engine) xidBit(block []byte) bool {
	return header16(block)&(1<<uint(15-e.cidBits)) != 0
}

// setXID forces the XID bit of block to 1 and reports the displaced value.
func (e *Engine) setXID(block []byte) (displaced bool) {
	pos := e.cidBits // bit index from MSB of byte 0
	mask := byte(1) << uint(7-pos%8)
	displaced = block[pos/8]&mask != 0
	block[pos/8] |= mask
	return displaced
}

// restoreXID writes the displaced bit back into the XID position.
func (e *Engine) restoreXID(block []byte, bit bool) {
	pos := e.cidBits
	mask := byte(1) << uint(7-pos%8)
	if bit {
		block[pos/8] |= mask
	} else {
		block[pos/8] &^= mask
	}
}

// InfoBits reports how many spare Metadata-Header bits a CID of this
// width leaves for extra information (Table I: a 14-bit CID frees 1 bit,
// 13 bits free 2, ...). The header is CID + XID + info = 16 bits.
func (e *Engine) InfoBits() int { return 15 - e.cidBits }

// PackCompressed builds the 32-byte sub-rank block for a compressed line:
// CID, XID=0, packed payload, zero fill. The payload must not exceed
// MaxPayload.
func (e *Engine) PackCompressed(packedPayload []byte) ([SubRankSize]byte, error) {
	return e.PackCompressedInfo(packedPayload, 0)
}

// PackCompressedInfo is PackCompressed with the Table I extension: info
// is stored in the header's spare bits (the low 15-CIDBits bits of the
// second header byte), e.g. to name the compression algorithm (§IV-A5).
func (e *Engine) PackCompressedInfo(packedPayload []byte, info uint8) ([SubRankSize]byte, error) {
	var block [SubRankSize]byte
	if len(packedPayload) > MaxPayload {
		return block, fmt.Errorf("blem: payload %d bytes exceeds %d", len(packedPayload), MaxPayload)
	}
	if int(info) >= 1<<uint(e.InfoBits()) {
		return block, fmt.Errorf("blem: info value %d does not fit %d spare bits", info, e.InfoBits())
	}
	h := e.cid << uint(16-e.cidBits) // CID at the top, XID (next bit) zero
	h |= uint16(info)                // spare bits below XID
	block[0] = byte(h >> 8)
	block[1] = byte(h)
	copy(block[HeaderBytes:], packedPayload)
	e.Stats.Writes.Inc()
	e.Stats.CompressedWrites.Inc()
	return block, nil
}

// PayloadOf returns the packed payload region of a compressed block.
func PayloadOf(block []byte) []byte { return block[HeaderBytes:SubRankSize] }

// StoreUncompressed prepares the 64-byte stored image of an uncompressed
// line (already scrambled by the caller). On a CID collision it inserts
// XID=1 and parks the displaced bit in the Replacement Area, charging the
// RA write counter. It reports whether a collision occurred.
func (e *Engine) StoreUncompressed(lineAddr uint64, line []byte) (stored [LineSize]byte, collision bool) {
	if len(line) != LineSize {
		panic(fmt.Sprintf("blem: StoreUncompressed needs a %d-byte line, got %d", LineSize, len(line)))
	}
	copy(stored[:], line)
	e.Stats.Writes.Inc()
	if e.topBits(stored[:]) != e.cid {
		return stored, false
	}
	displaced := e.setXID(stored[:])
	e.ra.Store(lineAddr, displaced)
	e.Stats.Collisions.Inc()
	e.Stats.RAWrites.Inc()
	return stored, true
}

// Classify inspects the first sub-rank block of a stored line and decides
// how to interpret it. This is the read-path decision of Fig. 9(d-f).
func (e *Engine) Classify(firstBlock []byte) Class {
	if len(firstBlock) < HeaderBytes {
		panic("blem: Classify needs at least the 2-byte header")
	}
	e.Stats.Reads.Inc()
	if e.topBits(firstBlock) != e.cid {
		return ClassUncompressed
	}
	if e.xidBit(firstBlock) {
		e.Stats.CollisionReads.Inc()
		return ClassCollision
	}
	return ClassCompressed
}

// LoadCollided reconstructs the original raw line of a collided store:
// it fetches the displaced bit from the Replacement Area (charging the RA
// read counter) and writes it back over the XID position.
func (e *Engine) LoadCollided(lineAddr uint64, stored []byte) [LineSize]byte {
	if len(stored) != LineSize {
		panic(fmt.Sprintf("blem: LoadCollided needs a %d-byte stored image, got %d", LineSize, len(stored)))
	}
	var line [LineSize]byte
	copy(line[:], stored)
	e.Stats.RAReads.Inc()
	e.restoreXID(line[:], e.ra.Load(lineAddr))
	return line
}
