package scramble

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestApplyIsInvolution(t *testing.T) {
	s := New(0xC0FFEE)
	data := []byte("sixty-four bytes of fairly compressible test data goes here!!!!")
	orig := append([]byte(nil), data...)
	s.Apply(42, data)
	if bytes.Equal(data, orig) {
		t.Fatal("scrambling left data unchanged")
	}
	s.Apply(42, data)
	if !bytes.Equal(data, orig) {
		t.Fatal("double scramble did not restore data")
	}
}

func TestScrambledDoesNotMutateInput(t *testing.T) {
	s := New(1)
	in := make([]byte, 64)
	out := s.Scrambled(7, in)
	if !bytes.Equal(in, make([]byte, 64)) {
		t.Fatal("input mutated")
	}
	if bytes.Equal(out, in) {
		t.Fatal("output not scrambled")
	}
}

func TestDifferentAddressesDifferentStreams(t *testing.T) {
	s := New(99)
	a := s.Scrambled(1, make([]byte, 64))
	b := s.Scrambled(2, make([]byte, 64))
	if bytes.Equal(a, b) {
		t.Fatal("same keystream for different addresses")
	}
}

func TestDifferentKeysDifferentStreams(t *testing.T) {
	a := New(1).Scrambled(5, make([]byte, 64))
	b := New(2).Scrambled(5, make([]byte, 64))
	if bytes.Equal(a, b) {
		t.Fatal("same keystream for different keys")
	}
}

// refApply is the byte-at-a-time Apply the word-wise one replaced, kept as
// its oracle: byte k of the stream is byte k%8 of keystream word k/8.
func refApply(s *Scrambler, addr uint64, data []byte) {
	for k := range data {
		data[k] ^= byte(s.keyword(addr, k/8) >> uint(8*(k%8)))
	}
}

// TestShortAndOddLengths holds Apply to refApply on every length a payload
// or a line can have and a few past it, at every alignment of the slice's
// first byte against the machine word (packed payloads sit at odd offsets
// of their blocks), so every split into whole words and a tail occurs; the
// bytes around the slice must stay untouched.
func TestShortAndOddLengths(t *testing.T) {
	s := New(5)
	for _, addr := range []uint64{0, 11, 1<<40 + 3} {
		for n := 0; n <= 72; n++ {
			for off := 0; off < 8; off++ {
				buf := make([]byte, off+n+8)
				for i := range buf {
					buf[i] = byte(i*7 + n)
				}
				orig := append([]byte(nil), buf...)
				want := append([]byte(nil), buf...)
				refApply(s, addr, want[off:off+n])
				s.Apply(addr, buf[off:off+n])
				if !bytes.Equal(buf, want) {
					t.Fatalf("addr %#x length %d offset %d: Apply\n%x, reference\n%x", addr, n, off, buf, want)
				}
				s.Apply(addr, buf[off:off+n])
				if !bytes.Equal(buf, orig) {
					t.Fatalf("addr %#x length %d offset %d: involution failed", addr, n, off)
				}
			}
		}
	}
}

// TestPrefixConsistency: the keystream for a block's first N bytes must not
// depend on how many bytes are scrambled — BLEM scrambles variable-length
// compressed payloads but classifies lines by their first two bytes.
func TestPrefixConsistency(t *testing.T) {
	s := New(123)
	full := s.Scrambled(9, make([]byte, 64))
	short := s.Scrambled(9, make([]byte, 16))
	if !bytes.Equal(full[:16], short) {
		t.Fatal("keystream prefix differs with payload length")
	}
}

// TestTopBitsUniform verifies the statistical property BLEM relies on: the
// top 15 bits of scrambled all-zero lines are uniformly distributed, so a
// CID collision happens with probability ~2^-15 per line.
func TestTopBitsUniform(t *testing.T) {
	s := New(0xABCDEF)
	const trials = 1 << 20
	var buckets [16]int // bucket by top 4 bits as a cheap uniformity proxy
	matches := 0
	const cid = 0x1234 >> 1 // arbitrary 15-bit value
	for addr := uint64(0); addr < trials; addr++ {
		data := make([]byte, 2)
		s.Apply(addr, data)
		top15 := uint16(data[0])<<7 | uint16(data[1])>>1
		buckets[top15>>11]++
		if top15 == cid {
			matches++
		}
	}
	want := float64(trials) / (1 << 15) // 32 expected matches
	if float64(matches) < want/4 || float64(matches) > want*4 {
		t.Fatalf("CID matches = %d, want ~%.0f", matches, want)
	}
	exp := float64(trials) / 16
	for i, b := range buckets {
		if math.Abs(float64(b)-exp) > exp*0.05 {
			t.Fatalf("bucket %d = %d, want ~%.0f (top bits not uniform)", i, b, exp)
		}
	}
}

// TestBitFlipAvalanche: flipping one address bit should change roughly half
// the keystream bits.
func TestBitFlipAvalanche(t *testing.T) {
	s := New(77)
	a := s.Scrambled(0x1000, make([]byte, 64))
	b := s.Scrambled(0x1001, make([]byte, 64))
	diff := 0
	for i := range a {
		x := a[i] ^ b[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff < 64*8*3/10 || diff > 64*8*7/10 {
		t.Fatalf("avalanche diff = %d bits of %d, want ~half", diff, 64*8)
	}
}

// Property: involution holds for arbitrary data, key, and address.
func TestInvolutionProperty(t *testing.T) {
	f := func(key, addr uint64, data []byte) bool {
		s := New(key)
		orig := append([]byte(nil), data...)
		s.Apply(addr, data)
		s.Apply(addr, data)
		return bytes.Equal(data, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Scrambled returns a scrambled copy of data, leaving the input intact.
func (s *Scrambler) Scrambled(addr uint64, data []byte) []byte {
	out := append([]byte(nil), data...)
	s.Apply(addr, out)
	return out
}
