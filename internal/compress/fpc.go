package compress

import (
	"encoding/binary"
	"fmt"
)

// FPC patterns, one 3-bit prefix per 32-bit word (Alameldeen & Wood's
// frequent-pattern table). Data widths per pattern are in fpcDataBits.
const (
	fpcZero         = 0 // all-zero word
	fpcSign4        = 1 // 4-bit sign-extended
	fpcSign8        = 2 // 8-bit sign-extended
	fpcSign16       = 3 // 16-bit sign-extended
	fpcHighHalf     = 4 // lower halfword zero, upper halfword stored
	fpcTwoHalves    = 5 // two halfwords, each sign-extended from 8 bits
	fpcRepByte      = 6 // four repeated bytes
	fpcUncompressed = 7
)

var fpcDataBits = [8]int{0, 4, 8, 16, 16, 16, 8, 32}

const fpcWords = LineSize / 4

// fpcAppend is the FPC encoder: it appends the encoding of line to dst and
// reports whether it beat the raw line.
func fpcAppend(dst, line []byte) (encoded []byte, ok bool) {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: FPCCompress needs a %d-byte line, got %d", LineSize, len(line)))
	}
	w := BitWriter{buf: dst[len(dst):cap(dst)]}
	for i := 0; i < fpcWords; i++ {
		pat, data := fpcClassify(binary.LittleEndian.Uint32(line[i*4:]))
		bits := fpcDataBits[pat]
		w.WriteBits(uint64(pat)<<uint(bits)|uint64(data), 3+bits)
	}
	enc := w.Bytes() // in dst's spare capacity unless the writer outgrew it
	return append(dst, enc...), len(enc) < LineSize
}

// fpcDecode is the FPC decoder, writing the line into dst.
func fpcDecode(dst *[LineSize]byte, encoded []byte) error {
	r := NewBitReader(encoded)
	for i := 0; i < fpcWords; i++ {
		pat, err := r.ReadBits(3)
		if err != nil {
			return fmt.Errorf("compress: FPC word %d prefix: %w", i, err)
		}
		data, err := r.ReadBits(fpcDataBits[pat])
		if err != nil {
			return fmt.Errorf("compress: FPC word %d data: %w", i, err)
		}
		word, err := fpcExpand(int(pat), uint32(data))
		if err != nil {
			return fmt.Errorf("compress: FPC word %d: %w", i, err)
		}
		binary.LittleEndian.PutUint32(dst[i*4:], word)
	}
	return nil
}

// fpcSize is the FPC size pass: the encoded size when it is at most limit
// bytes, else LineSize. The sixteen prefixes are counted up front, so the
// pass stops at the first word that takes the running bit count over limit
// — before the first when not even sixteen zero words would fit.
func fpcSize(line []byte, limit int) int {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: FPCSize needs a %d-byte line, got %d", LineSize, len(line)))
	}
	bits := 3 * fpcWords
	for i := 0; i < fpcWords && bits <= 8*limit; i++ {
		pat, _ := fpcClassify(binary.LittleEndian.Uint32(line[i*4:]))
		bits += fpcDataBits[pat]
	}
	if n := (bits + 7) / 8; n <= limit {
		return n
	}
	return LineSize
}

func fpcClassify(word uint32) (pattern int, data uint32) {
	switch {
	case word == 0:
		return fpcZero, 0
	case fitsSigned(int64(int32(word)), 4):
		return fpcSign4, word & 0xF
	case fitsSigned(int64(int32(word)), 8):
		return fpcSign8, word & 0xFF
	case fitsSigned(int64(int32(word)), 16):
		return fpcSign16, word & 0xFFFF
	case word&0xFFFF == 0:
		return fpcHighHalf, word >> 16
	case fpcHalfFits(word):
		lo := word & 0xFFFF
		hi := word >> 16
		return fpcTwoHalves, (hi&0xFF)<<8 | lo&0xFF
	case fpcRepeatedByte(word):
		return fpcRepByte, word & 0xFF
	default:
		return fpcUncompressed, word
	}
}

func fpcHalfFits(word uint32) bool {
	lo := int64(int16(word & 0xFFFF))
	hi := int64(int16(word >> 16))
	return fitsSigned(lo, 8) && fitsSigned(hi, 8)
}

func fpcRepeatedByte(word uint32) bool {
	b := word & 0xFF
	return word == b|b<<8|b<<16|b<<24
}

func fpcExpand(pattern int, data uint32) (uint32, error) {
	switch pattern {
	case fpcZero:
		return 0, nil
	case fpcSign4:
		return uint32(signExtend(uint64(data), 4)), nil
	case fpcSign8:
		return uint32(signExtend(uint64(data), 8)), nil
	case fpcSign16:
		return uint32(signExtend(uint64(data), 16)), nil
	case fpcHighHalf:
		return data << 16, nil
	case fpcTwoHalves:
		lo := uint32(signExtend(uint64(data&0xFF), 8)) & 0xFFFF
		hi := uint32(signExtend(uint64(data>>8), 8)) & 0xFFFF
		return hi<<16 | lo, nil
	case fpcRepByte:
		b := data & 0xFF
		return b | b<<8 | b<<16 | b<<24, nil
	case fpcUncompressed:
		return data, nil
	default:
		return 0, fmt.Errorf("invalid pattern %d", pattern)
	}
}
