// Package scramble models the data Scrambling-Descrambling unit found in
// modern memory controllers (paper §IV-B). Scrambling XORs stored data with
// an address-seeded pseudo-random keystream so that the bits on the DRAM
// bus appear random regardless of content — the property that gives BLEM's
// 15-bit CID its 2^-15 collision probability even for adversarial data
// (e.g. all-zero lines whose top bits would otherwise never vary).
//
// The transform is an involution: applying it twice with the same key and
// address recovers the original bytes, so one function serves as both
// scrambler and descrambler.
package scramble

import (
	"encoding/binary"

	"attache/internal/stats"
)

// Scrambler generates a per-address keystream from a boot-time key. The
// paper's scramblers "choose hashes with memory block address as an input"
// so identical data written to different blocks still looks different
// (footnote 3).
type Scrambler struct {
	key uint64
}

// New returns a scrambler for the given boot-time key.
func New(key uint64) *Scrambler { return &Scrambler{key: key} }

// keyword returns the i-th 8-byte keystream word for a block address.
// The keystream generator is splitmix64: a full-period 64-bit mixer
// with good avalanche behaviour, small enough to be plausible
// controller hardware.
func (s *Scrambler) keyword(addr uint64, i int) uint64 {
	return stats.SplitMix64(s.key ^ stats.SplitMix64(addr+uint64(i)*0xA24BAED4963EE407))
}

// Apply XORs data in place with the keystream for the given block address.
// Byte k of the stream comes from keystream word k/8: whole words are
// XOR-ed in eight bytes at a time, a tail of up to seven bytes one by one.
// Because XOR is its own inverse, Apply both scrambles and descrambles.
func (s *Scrambler) Apply(addr uint64, data []byte) {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:]) ^ s.keyword(addr, i/8)
		binary.LittleEndian.PutUint64(data[i:], w)
	}
	if i < len(data) {
		for w := s.keyword(addr, i/8); i < len(data); i, w = i+1, w>>8 {
			data[i] ^= byte(w)
		}
	}
}
