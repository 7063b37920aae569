package compress

import (
	"encoding/binary"
	"fmt"
)

// C-Pack-style dictionary compression (Chen et al., "C-Pack: A
// High-Performance Microprocessor Cache Compression Algorithm"). The
// paper's CID extension (§IV-A5, Table I) exists precisely to select
// among multiple algorithms on the fly; this codec is the third
// algorithm of the extended engine (NewExtendedEngine).
//
// The line is processed as sixteen 32-bit words against a small FIFO
// dictionary built online from the line's own words; the decompressor
// reconstructs the identical dictionary, so no table is stored.
//
// Per-word codes (prefix, payload bits):
//
//	00    zero word                         (0)
//	01    uncompressed word, pushed to dict (32)
//	10    full dictionary match             (4: index)
//	1100  match on upper 16 bits            (4 + 16)
//	1101  match on upper 24 bits            (4 + 8)
//	1110  three zero bytes + one literal    (8)
const (
	cpackDictSize = 16
)

// cpackAppend is the CPack encoder: it appends the encoding of line to dst
// and reports whether it beat the raw line.
func cpackAppend(dst, line []byte) (encoded []byte, ok bool) {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: CPackCompress needs a %d-byte line, got %d", LineSize, len(line)))
	}
	w := BitWriter{buf: dst[len(dst):cap(dst)]}
	var dictArr [cpackDictSize]uint32
	dict := dictArr[:0]
	for i := 0; i < fpcWords; i++ {
		word := binary.LittleEndian.Uint32(line[i*4:])
		switch {
		case word == 0:
			w.WriteBits(0b00, 2)
		case word&0xFFFFFF00 == 0:
			w.WriteBits(0b1110<<8|uint64(word), 4+8)
		default:
			if idx, kind := cpackMatch(dict, word); kind == 2 {
				w.WriteBits(0b10<<4|uint64(idx), 2+4)
			} else if kind == 1 {
				w.WriteBits(0b1101<<12|uint64(idx)<<8|uint64(word&0xFF), 4+4+8)
			} else if kind == 0 {
				w.WriteBits(0b1100<<20|uint64(idx)<<16|uint64(word&0xFFFF), 4+4+16)
			} else {
				w.WriteBits(0b01<<32|uint64(word), 2+32)
			}
			dict = cpackPush(dict, word)
		}
	}
	enc := w.Bytes() // in dst's spare capacity unless the writer outgrew it
	return append(dst, enc...), len(enc) < LineSize
}

// cpackMatch finds the best dictionary match for word: kind 2 = full,
// 1 = upper 24 bits, 0 = upper 16 bits, -1 = none.
func cpackMatch(dict []uint32, word uint32) (idx, kind int) {
	idx, kind = -1, -1
	for i, d := range dict {
		switch {
		case d == word:
			return i, 2
		case kind < 1 && d&0xFFFFFF00 == word&0xFFFFFF00:
			idx, kind = i, 1
		case kind < 0 && d&0xFFFF0000 == word&0xFFFF0000:
			idx, kind = i, 0
		}
	}
	return idx, kind
}

// cpackPush appends to the FIFO dictionary, evicting the oldest entry
// when full. Both sides of the codec perform identical pushes.
func cpackPush(dict []uint32, word uint32) []uint32 {
	if len(dict) == cpackDictSize {
		copy(dict, dict[1:])
		dict[len(dict)-1] = word
		return dict
	}
	return append(dict, word)
}

// cpackDecode is the CPack decoder, writing the line into dst.
func cpackDecode(dst *[LineSize]byte, encoded []byte) error {
	r := NewBitReader(encoded)
	var dictArr [cpackDictSize]uint32
	dict := dictArr[:0]
	for i := 0; i < fpcWords; i++ {
		word, pushed, err := cpackDecodeWord(r, dict)
		if err != nil {
			return fmt.Errorf("compress: cpack word %d: %w", i, err)
		}
		if pushed {
			dict = cpackPush(dict, word)
		}
		binary.LittleEndian.PutUint32(dst[i*4:], word)
	}
	return nil
}

func cpackDecodeWord(r *BitReader, dict []uint32) (word uint32, pushed bool, err error) {
	b1, err := r.ReadBits(2)
	if err != nil {
		return 0, false, err
	}
	switch b1 {
	case 0b00:
		return 0, false, nil
	case 0b01:
		v, err := r.ReadBits(32)
		return uint32(v), true, err
	case 0b10:
		idx, err := r.ReadBits(4)
		if err != nil {
			return 0, false, err
		}
		if int(idx) >= len(dict) {
			return 0, false, fmt.Errorf("dictionary index %d out of range %d", idx, len(dict))
		}
		return dict[idx], true, nil
	default: // 11: read two more prefix bits
		b2, err := r.ReadBits(2)
		if err != nil {
			return 0, false, err
		}
		switch b2 {
		case 0b00: // mmxx
			idx, err := r.ReadBits(4)
			if err != nil {
				return 0, false, err
			}
			low, err := r.ReadBits(16)
			if err != nil {
				return 0, false, err
			}
			if int(idx) >= len(dict) {
				return 0, false, fmt.Errorf("dictionary index %d out of range %d", idx, len(dict))
			}
			return dict[idx]&0xFFFF0000 | uint32(low), true, nil
		case 0b01: // mmmx
			idx, err := r.ReadBits(4)
			if err != nil {
				return 0, false, err
			}
			low, err := r.ReadBits(8)
			if err != nil {
				return 0, false, err
			}
			if int(idx) >= len(dict) {
				return 0, false, fmt.Errorf("dictionary index %d out of range %d", idx, len(dict))
			}
			return dict[idx]&0xFFFFFF00 | uint32(low), true, nil
		case 0b10: // zzzx
			low, err := r.ReadBits(8)
			return uint32(low), false, err
		default:
			return 0, false, fmt.Errorf("invalid prefix 11%02b", b2)
		}
	}
}

// cpackSize is the CPack size pass, bounded like fpcSize: the encoded size
// when it is at most limit bytes, else LineSize, the sixteen two-bit
// prefixes every code starts with counted up front.
func cpackSize(line []byte, limit int) int {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: CPackSize needs a %d-byte line, got %d", LineSize, len(line)))
	}
	var dictArr [cpackDictSize]uint32
	dict := dictArr[:0]
	bits := 2 * fpcWords
	for i := 0; i < fpcWords && bits <= 8*limit; i++ {
		word := binary.LittleEndian.Uint32(line[i*4:])
		switch {
		case word == 0: // the prefix is the code
		case word&0xFFFFFF00 == 0:
			bits += 2 + 8
		default:
			switch _, kind := cpackMatch(dict, word); kind {
			case 2:
				bits += 4
			case 1:
				bits += 2 + 4 + 8
			case 0:
				bits += 2 + 4 + 16
			default:
				bits += 32
			}
			dict = cpackPush(dict, word)
		}
	}
	if n := (bits + 7) / 8; n <= limit {
		return n
	}
	return LineSize
}
