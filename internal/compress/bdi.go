// Package compress implements the cacheline compression algorithms the
// Attaché paper builds on: Base-Delta-Immediate (BDI, Pekhimenko et al.,
// PACT 2012) and Frequent-Pattern-Compression (FPC, Alameldeen & Wood),
// plus the best-of-both engine the paper's memory controller runs (§V).
//
// All codecs operate on 64-byte cachelines and provide exact round-trips;
// sizes reported include the per-line encoding byte so they are directly
// comparable against the paper's "compressible to 30 bytes" threshold.
package compress

import (
	"encoding/binary"
	"fmt"
)

// LineSize is the cacheline size every codec in this package operates on.
const LineSize = 64

// BDIEncoding identifies one of the BDI line formats.
type BDIEncoding uint8

// The BDI encodings, ordered roughly by compressed size. BxDy means
// x-byte segments with y-byte deltas against a single base, with a
// per-segment immediate flag for segments that are small relative to zero.
const (
	BDIZeros BDIEncoding = iota // all-zero line
	BDIRep                      // one repeated 8-byte value
	BDIB8D1
	BDIB8D2
	BDIB8D4
	BDIB4D1
	BDIB4D2
	BDIB2D1
	BDIUncompressed
)

var bdiNames = map[BDIEncoding]string{
	BDIZeros: "zeros", BDIRep: "rep", BDIB8D1: "b8d1", BDIB8D2: "b8d2",
	BDIB8D4: "b8d4", BDIB4D1: "b4d1", BDIB4D2: "b4d2", BDIB2D1: "b2d1",
	BDIUncompressed: "uncompressed",
}

// String names the encoding as in the BDI paper.
func (e BDIEncoding) String() string {
	if n, ok := bdiNames[e]; ok {
		return n
	}
	return fmt.Sprintf("BDIEncoding(%d)", uint8(e))
}

type bdiShape struct {
	enc   BDIEncoding
	seg   int // segment size in bytes
	delta int // delta size in bytes
	mask  int // immediate-mask bytes, one bit per segment; filled in at init
	size  int // bdiShapeSize, filled in at init
}

// bdiShapes is ordered by encoded size (bdiShapeSize ascending: 18, 23,
// 26, 39, 39, 42 bytes). bdiFit relies on this order to return the first
// shape that fits, which is also the smallest.
var bdiShapes = []bdiShape{
	{enc: BDIB8D1, seg: 8, delta: 1},
	{enc: BDIB4D1, seg: 4, delta: 1},
	{enc: BDIB8D2, seg: 8, delta: 2},
	{enc: BDIB2D1, seg: 2, delta: 1},
	{enc: BDIB4D2, seg: 4, delta: 2},
	{enc: BDIB8D4, seg: 8, delta: 4},
}

// bdiByTag indexes bdiShapes by encoding tag; the tags that are not
// base-delta shapes stay nil.
var bdiByTag [BDIUncompressed]*bdiShape

func init() {
	for i := range bdiShapes {
		s := &bdiShapes[i]
		s.mask, s.size = LineSize/s.seg/8, bdiShapeSize(*s)
		bdiByTag[s.enc] = s
	}
}

// bdiShapeSize reports the encoded byte size for a base-delta shape:
// encoding byte + immediate mask + base + one delta per segment.
func bdiShapeSize(s bdiShape) int {
	nseg := LineSize / s.seg
	return 1 + nseg/8 + s.seg + nseg*s.delta
}

// bdiPlan is what bdiFit decided and all bdiEncode needs beside the line:
// the encoding and its size, rep's value or the shape's base, and bit i
// set for a segment stored as an immediate.
type bdiPlan struct {
	enc       BDIEncoding
	size      int
	base      uint64
	immediate uint32
}

// bdiFit is the one BDI planner: the smallest encoding of line that takes
// at most limit bytes — zeros, rep, then the shapes in size order — or
// BDIUncompressed at LineSize when there is none. A shape over limit is
// never tried: the caller could not have used it.
func bdiFit(line []byte, limit int) bdiPlan {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: BDI needs a %d-byte line, got %d", LineSize, len(line)))
	}
	switch v, rep := repeated8(line); {
	case rep && v == 0 && limit >= 1:
		return bdiPlan{enc: BDIZeros, size: 1}
	case rep && limit >= 9:
		return bdiPlan{enc: BDIRep, size: 9, base: v}
	}
	for i := range bdiShapes {
		s := &bdiShapes[i]
		if s.size > limit {
			break
		}
		if base, immediate, ok := bdiFits(line, s); ok {
			return bdiPlan{enc: s.enc, size: s.size, base: base, immediate: immediate}
		}
	}
	return bdiPlan{enc: BDIUncompressed, size: LineSize}
}

// bdiSize is the encoded size enc fixes, tag byte included.
func bdiSize(enc BDIEncoding) int {
	switch enc {
	case BDIZeros:
		return 1
	case BDIRep:
		return 9
	}
	return bdiByTag[enc].size
}

// bdiDecode is the BDI decoder, writing the line into dst.
func bdiDecode(dst *[LineSize]byte, encoded []byte) error {
	if len(encoded) == 0 {
		return fmt.Errorf("compress: empty BDI encoding")
	}
	enc := BDIEncoding(encoded[0])
	switch enc {
	case BDIZeros:
		*dst = [LineSize]byte{}
		return nil
	case BDIRep:
		if len(encoded) != 9 {
			return fmt.Errorf("compress: rep encoding needs 9 bytes, got %d", len(encoded))
		}
		v := binary.LittleEndian.Uint64(encoded[1:])
		for i := 0; i < LineSize; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
		return nil
	}
	if enc < BDIUncompressed {
		return decodeBaseDelta(dst, encoded, bdiByTag[enc])
	}
	return fmt.Errorf("compress: unknown BDI encoding tag %d", encoded[0])
}

func repeated8(line []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(line)
	for i := 8; i < LineSize; i += 8 {
		if binary.LittleEndian.Uint64(line[i:]) != v {
			return 0, false
		}
	}
	return v, true
}

// readSeg loads the size-byte little-endian value at b[off:]; size is one
// of the widths a shape's mask, base, segment or delta can have.
func readSeg(b []byte, off, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[off:]))
	default:
		return binary.LittleEndian.Uint64(b[off:])
	}
}

// writeSeg stores the low size bytes of v at b[off:], widths as in readSeg.
func writeSeg(b []byte, off, size int, v uint64) {
	switch size {
	case 1:
		b[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(b[off:], v)
	}
}

// bdiFits decides whether shape s fits. Each segment is stored either as a
// delta from the line's base (the first non-immediate segment) or, when it
// is small on its own, as an "immediate" delta from zero; ok is false when
// some segment fits neither form. A seg-byte value x fits a signed delta
// of d bits iff (x + 2^(d-1)) mod 2^(8*seg) < 2^d.
func bdiFits(line []byte, s *bdiShape) (base uint64, immediate uint32, ok bool) {
	segMask := maskBits(s.seg * 8)
	half := uint64(1) << uint(s.delta*8-1)
	haveBase := false
	for i, off := 0, 0; off < LineSize; i, off = i+1, off+s.seg {
		v := readSeg(line, off, s.seg)
		if (v+half)&segMask < 2*half {
			immediate |= 1 << uint(i)
			continue
		}
		if !haveBase {
			base, haveBase = v, true
		}
		if (v-base+half)&segMask >= 2*half {
			return 0, 0, false
		}
	}
	return base, immediate, true
}

// bdiEncode appends the encoding bdiFit planned for line to dst.
func bdiEncode(dst, line []byte, p bdiPlan) []byte {
	switch p.enc {
	case BDIZeros:
		return append(dst, byte(BDIZeros))
	case BDIRep:
		return binary.LittleEndian.AppendUint64(append(dst, byte(BDIRep)), p.base)
	}
	s := bdiByTag[p.enc]
	var zero [LineSize]byte
	dst = append(dst, zero[:s.size]...)
	out := dst[len(dst)-s.size:]
	out[0] = byte(s.enc)
	writeSeg(out, 1, s.mask, uint64(p.immediate))
	writeSeg(out, 1+s.mask, s.seg, p.base)
	deltaOff := 1 + s.mask + s.seg
	for i, off := 0, 0; off < LineSize; i, off = i+1, off+s.seg {
		v := readSeg(line, off, s.seg)
		if p.immediate&(1<<uint(i)) == 0 {
			v -= p.base
		}
		writeSeg(out, deltaOff+i*s.delta, s.delta, v) // keeps the low delta bytes
	}
	return dst
}

func decodeBaseDelta(dst *[LineSize]byte, encoded []byte, s *bdiShape) error {
	if len(encoded) != s.size {
		return fmt.Errorf("compress: %s encoding needs %d bytes, got %d", s.enc, s.size, len(encoded))
	}
	immediate := readSeg(encoded, 1, s.mask)
	base := readSeg(encoded, 1+s.mask, s.seg)
	deltaOff := 1 + s.mask + s.seg
	for i, off := 0, 0; off < LineSize; i, off = i+1, off+s.seg {
		v := uint64(signExtend(readSeg(encoded, deltaOff+i*s.delta, s.delta), s.delta*8))
		if immediate&(1<<uint(i)) == 0 {
			v += base // else an immediate: a delta from zero
		}
		writeSeg(dst[:], off, s.seg, v) // keeps the low seg bytes
	}
	return nil
}

func maskBits(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(bits)) - 1
}
