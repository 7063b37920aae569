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
}

// bdiShapes is ordered by encoded size (bdiShapeSize ascending: 18, 23,
// 26, 39, 39, 42 bytes). BDICompress and BDISize rely on this order to
// return the first shape that fits, which is also the smallest.
var bdiShapes = []bdiShape{
	{BDIB8D1, 8, 1},
	{BDIB4D1, 4, 1},
	{BDIB8D2, 8, 2},
	{BDIB2D1, 2, 1},
	{BDIB4D2, 4, 2},
	{BDIB8D4, 8, 4},
}

// bdiMaxSegs is the largest segment count any shape produces (2-byte
// segments of a 64-byte line) — the scratch-array bound for the planners.
const bdiMaxSegs = LineSize / 2

// bdiShapeSize reports the encoded byte size for a base-delta shape:
// encoding byte + immediate mask + base + one delta per segment.
func bdiShapeSize(s bdiShape) int {
	nseg := LineSize / s.seg
	return 1 + nseg/8 + s.seg + nseg*s.delta
}

// BDICompress compresses a 64-byte line with the smallest applicable BDI
// encoding. It returns the encoded bytes (first byte is the encoding tag)
// and ok=false when no encoding beats the raw line.
func BDICompress(line []byte) (encoded []byte, ok bool) {
	return bdiAppend(nil, line)
}

// bdiAppend is the BDI encoder: it appends the encoding of line to dst, or
// returns dst untouched and ok=false when no encoding beats the raw line.
func bdiAppend(dst, line []byte) (encoded []byte, ok bool) {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: BDICompress needs a %d-byte line, got %d", LineSize, len(line)))
	}
	if isZeros(line) {
		return append(dst, byte(BDIZeros)), true
	}
	if v, rep := repeated8(line); rep {
		return binary.LittleEndian.AppendUint64(append(dst, byte(BDIRep)), v), true
	}
	var segs [bdiMaxSegs]uint64
	var immediate [bdiMaxSegs]bool
	for _, s := range bdiShapes {
		base, ok := bdiPlan(line, s, &segs, &immediate)
		if !ok {
			continue
		}
		return bdiEncode(dst, s, base, &segs, &immediate), true
	}
	return dst, false
}

// BDIDecompress reverses BDICompress. It returns an error on a malformed
// encoding.
func BDIDecompress(encoded []byte) ([]byte, error) {
	return decodeLine(AlgoBDI, encoded)
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
	for _, s := range bdiShapes {
		if s.enc == enc {
			return decodeBaseDelta(dst, encoded, s)
		}
	}
	return fmt.Errorf("compress: unknown BDI encoding tag %d", encoded[0])
}

// BDISize reports the compressed size in bytes BDI achieves for line, or
// LineSize when the line is incompressible under BDI. Unlike BDICompress
// it allocates nothing: it only plans the encodings.
func BDISize(line []byte) int {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: BDISize needs a %d-byte line, got %d", LineSize, len(line)))
	}
	if isZeros(line) {
		return 1
	}
	if _, rep := repeated8(line); rep {
		return 9
	}
	var segs [bdiMaxSegs]uint64
	var immediate [bdiMaxSegs]bool
	for _, s := range bdiShapes {
		if _, ok := bdiPlan(line, s, &segs, &immediate); ok {
			return bdiShapeSize(s)
		}
	}
	return LineSize
}

func isZeros(line []byte) bool {
	for _, b := range line {
		if b != 0 {
			return false
		}
	}
	return true
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

func readSeg(line []byte, off, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(line[off+i])
	}
	return v
}

func writeSeg(out []byte, off, size int, v uint64) {
	for i := 0; i < size; i++ {
		out[off+i] = byte(v >> uint(8*i))
	}
}

// bdiPlan decides whether the given shape fits. Each segment is stored
// either as a delta from the line's base (the first non-immediate segment)
// or, when it is small on its own, as an "immediate" delta from zero.
// Segment values and the immediate flags land in the caller's scratch
// arrays (no allocation) for bdiEncode; ok is false when some segment fits
// neither form.
func bdiPlan(line []byte, s bdiShape, segs *[bdiMaxSegs]uint64, immediate *[bdiMaxSegs]bool) (base uint64, ok bool) {
	nseg := LineSize / s.seg
	segBits := s.seg * 8
	deltaBits := s.delta * 8

	haveBase := false
	for i := 0; i < nseg; i++ {
		v := readSeg(line, i*s.seg, s.seg)
		segs[i] = v
		if fitsSigned(signExtend(v, segBits), deltaBits) {
			immediate[i] = true
			continue
		}
		immediate[i] = false
		if !haveBase {
			base = v
			haveBase = true
		}
		delta := (v - base) & maskBits(segBits)
		if !fitsSigned(signExtend(delta, segBits), deltaBits) {
			return 0, false
		}
	}
	return base, true
}

// bdiEncode appends the encoding bdiPlan validated to dst.
func bdiEncode(dst []byte, s bdiShape, base uint64, segs *[bdiMaxSegs]uint64, immediate *[bdiMaxSegs]bool) []byte {
	nseg := LineSize / s.seg
	segBits := s.seg * 8
	deltaBits := s.delta * 8
	var zero [LineSize]byte // grows dst zeroed: the mask bits are OR-ed in
	dst = append(dst, zero[:bdiShapeSize(s)]...)
	out := dst[len(dst)-bdiShapeSize(s):]
	out[0] = byte(s.enc)
	maskOff := 1
	baseOff := maskOff + nseg/8
	deltaOff := baseOff + s.seg
	writeSeg(out, baseOff, s.seg, base)
	for i := 0; i < nseg; i++ {
		v := segs[i]
		if immediate[i] {
			out[maskOff+i/8] |= 1 << uint(i%8)
			writeSeg(out, deltaOff+i*s.delta, s.delta, v&maskBits(deltaBits))
			continue
		}
		delta := (v - base) & maskBits(segBits)
		writeSeg(out, deltaOff+i*s.delta, s.delta, delta&maskBits(deltaBits))
	}
	return dst
}

func decodeBaseDelta(dst *[LineSize]byte, encoded []byte, s bdiShape) error {
	nseg := LineSize / s.seg
	want := bdiShapeSize(s)
	if len(encoded) != want {
		return fmt.Errorf("compress: %s encoding needs %d bytes, got %d", s.enc, want, len(encoded))
	}
	segBits := s.seg * 8
	deltaBits := s.delta * 8
	maskOff := 1
	baseOff := maskOff + nseg/8
	deltaOff := baseOff + s.seg
	base := readSeg(encoded, baseOff, s.seg)
	for i := 0; i < nseg; i++ {
		raw := readSeg(encoded, deltaOff+i*s.delta, s.delta)
		delta := uint64(signExtend(raw, deltaBits)) & maskBits(segBits)
		var v uint64
		if encoded[maskOff+i/8]&(1<<uint(i%8)) != 0 {
			v = delta // immediate: delta from zero
		} else {
			v = (base + delta) & maskBits(segBits)
		}
		writeSeg(dst[:], i*s.seg, s.seg, v)
	}
	return nil
}

func maskBits(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(bits)) - 1
}
