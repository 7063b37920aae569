package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"attache/internal/blem"
	"attache/internal/compress"
)

// TestCorruptedStoredLinesNeverPanic injects random bit flips into stored
// images and verifies the read path degrades gracefully: it may return an
// error (malformed compressed payload) or wrong bytes (silent corruption,
// as in real non-ECC DRAM), but it must never panic.
func TestCorruptedStoredLinesNeverPanic(t *testing.T) {
	f := newFramework(t)
	rng := rand.New(rand.NewSource(99))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("read path panicked on corrupted data: %v", r)
		}
	}()
	for trial := 0; trial < 3000; trial++ {
		var data []byte
		if trial%2 == 0 {
			data = compressibleLine(trial)
		} else {
			data = randomLine(rng)
		}
		st, _, err := f.Store(uint64(trial), data)
		if err != nil {
			t.Fatal(err)
		}
		// Flip 1-8 random bits across the stored image.
		for n := 1 + rng.Intn(8); n > 0; n-- {
			block := rng.Intn(2)
			byteIdx := rng.Intn(SubRankBlock)
			st.Blocks[block][byteIdx] ^= 1 << uint(rng.Intn(8))
		}
		// Load must not panic; errors and wrong data are acceptable.
		_, _, _ = f.Load(uint64(trial), st)
	}
}

// TestTruncatedPayloadErrors: zeroing the payload region of a compressed
// block can produce an undecodable image; the error must be reported, not
// panicked, and must identify the line.
func TestCorruptionDetectedWhenDecodable(t *testing.T) {
	f := newFramework(t)
	data := compressibleLine(3)
	st, _, err := f.Store(5, data)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Compressed {
		t.Fatal("expected compressed store")
	}
	// Preserve the CID/XID header but scramble the payload bytes with a
	// value that cannot begin a valid packed payload once descrambled.
	for i := 2; i < SubRankBlock; i++ {
		st.Blocks[0][i] ^= 0xA5
	}
	got, _, err := f.Load(5, st)
	if err == nil && string(got) == string(data) {
		t.Fatal("corrupted payload round-tripped to original data")
	}
}

// TestLoadIntoCorruptBlocks pins what LoadInto makes of a stored block of
// every compressed class — zeros, rep, the base-delta shapes that fit a
// sub-rank, FPC and, on the extended engine, CPack — and of every
// single-byte corruption of its payload: whether the load fails and, when
// it does not, the line it returns, all folded into one SHA-256.
func TestLoadIntoCorruptBlocks(t *testing.T) {
	extended := DefaultOptions()
	extended.ExtendedCompression = true
	rng := rand.New(rand.NewSource(43))
	word := func(bits uint) uint32 { return uint32(int32(rng.Uint32()) >> (32 - bits)) }
	segs := func(seg, deltaBits int) []byte {
		l := make([]byte, LineSize)
		base := rng.Uint64()
		for off := 0; off < LineSize; off += seg {
			v := base + uint64(int64(rng.Int63())>>(63-deltaBits))
			for i := 0; i < seg; i++ {
				l[off+i] = byte(v >> (8 * i))
			}
		}
		return l
	}
	classes := []struct {
		name string
		opts Options
		algo compress.Algorithm
		enc  compress.BDIEncoding // the leading packed byte of a BDI class
		line func() []byte
	}{
		{"zeros", DefaultOptions(), compress.AlgoBDI, compress.BDIZeros, func() []byte { return make([]byte, LineSize) }},
		{"rep", DefaultOptions(), compress.AlgoBDI, compress.BDIRep, func() []byte {
			l := make([]byte, LineSize)
			v := rng.Uint64() | 1
			for i := 0; i < LineSize; i += 8 {
				binary.LittleEndian.PutUint64(l[i:], v)
			}
			return l
		}},
		{"b8d1", DefaultOptions(), compress.AlgoBDI, compress.BDIB8D1, func() []byte { return segs(8, 8) }},
		{"b4d1", DefaultOptions(), compress.AlgoBDI, compress.BDIB4D1, func() []byte { return segs(4, 8) }},
		{"b8d2", DefaultOptions(), compress.AlgoBDI, compress.BDIB8D2, func() []byte { return segs(8, 16) }},
		{"fpc", DefaultOptions(), compress.AlgoFPC, 0, func() []byte {
			var w [16]uint32
			for i := range w {
				switch rng.Intn(4) {
				case 1:
					w[i] = word(4)
				case 2:
					w[i] = word(8)
				case 3:
					w[i] = word(16) << 16
				}
			}
			return wordsLine(w)
		}},
		{"cpack", extended, compress.AlgoCPack, 0, func() []byte {
			vocab := [3]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
			var w [16]uint32
			for i := range w {
				w[i] = vocab[rng.Intn(len(vocab))]
			}
			return wordsLine(w)
		}},
	}
	const perClass = 40
	h := sha256.New()
	var dst [LineSize]byte
	addr := uint64(0)
	for _, c := range classes {
		f, err := New(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf [blem.MaxPayload]byte
		for n := 0; n < perClass; addr++ {
			line := c.line()
			packed, algo := f.Comp.AppendPacked(buf[:0], line)
			if algo != c.algo || algo == compress.AlgoBDI && compress.BDIEncoding(packed[0]) != c.enc {
				continue // another class's line; draw again
			}
			n++
			st, _, err := f.Store(addr, line)
			if err != nil || !st.Compressed {
				t.Fatalf("%s: store compressed=%v err=%v", c.name, st.Compressed, err)
			}
			if _, err := f.LoadInto(&dst, addr, st); err != nil || !bytes.Equal(dst[:], line) {
				t.Fatalf("%s: clean block does not round-trip (err %v)", c.name, err)
			}
			for pos := blem.HeaderBytes; pos < SubRankBlock; pos++ {
				for v := 1; v < 256; v++ {
					bad := st
					bad.Blocks[0][pos] ^= byte(v)
					if _, err := f.LoadInto(&dst, addr, bad); err != nil {
						h.Write([]byte{0})
					} else {
						h.Write([]byte{1})
						h.Write(dst[:])
					}
				}
			}
		}
	}
	const want = "1536f0fc9ba7ba751f05cfb604909329600b898601446d3f807a1766d5c0cf7f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("outcome digest %s, want %s", got, want)
	}
}
