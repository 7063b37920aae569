package scramble

import (
	"bytes"
	"testing"
)

// FuzzScrambleInvolution asserts the scrambler's defining property over
// arbitrary keys, addresses, and data: Apply is the bytewise reference's
// transform, applying it twice is the identity (one unit serves as both scrambler and descrambler), and
// Scrambled never mutates its input.
func FuzzScrambleInvolution(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{})
	f.Add(uint64(0xFEEDFACE), uint64(1<<40), make([]byte, 64))
	f.Add(uint64(1), uint64(7), []byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, key, addr uint64, data []byte) {
		s := New(key)
		orig := append([]byte(nil), data...)

		want := append([]byte(nil), data...)
		refApply(s, addr, want)
		s.Apply(addr, data)
		if !bytes.Equal(data, want) {
			t.Fatal("Apply differs from the bytewise reference")
		}
		s.Apply(addr, data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Apply twice is not the identity")
		}

		out := s.Scrambled(addr, data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Scrambled mutated its input")
		}
		s.Apply(addr, out)
		if !bytes.Equal(out, orig) {
			t.Fatal("Scrambled+Apply did not descramble")
		}

		// The keystream is address-seeded: the same data at another
		// address must scramble differently (8+ bytes make a keystream
		// clash astronomically unlikely, and the fuzz corpus would pin
		// any counterexample permanently).
		if len(orig) >= 8 {
			other := s.Scrambled(addr+1, orig)
			self := s.Scrambled(addr, orig)
			if bytes.Equal(other, self) {
				t.Fatal("keystream ignores the address")
			}
		}
	})
}
