package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineSelectsBest(t *testing.T) {
	e := NewEngine()

	// Zero line: both codecs work; BDI (1 byte) beats FPC (6 bytes).
	c := e.Compress(make([]byte, LineSize))
	if c.Algo != AlgoBDI || len(c.Pack()) != 1 {
		t.Fatalf("zero line: algo=%v size=%d, want bdi/1", c.Algo, len(c.Pack()))
	}

	// A line of small independent 32-bit values: FPC-friendly, BDI-hostile
	// (no common 8-byte base, values too big for immediates at small delta).
	l := make([]byte, LineSize)
	rng := rand.New(rand.NewSource(5))
	for w := 0; w < 16; w++ {
		binary.LittleEndian.PutUint32(l[w*4:], uint32(rng.Intn(100)))
	}
	c = e.Compress(l)
	if c.Algo == AlgoNone {
		t.Fatal("small-word line should compress")
	}
}

func TestEngineIncompressibleKeepsRaw(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(21))
	l := line64(func(int) byte { return byte(rng.Intn(256)) })
	c := e.Compress(l)
	if c.Algo != AlgoNone {
		t.Fatalf("random line compressed with %v", c.Algo)
	}
	if !bytes.Equal(c.Payload, l) {
		t.Fatal("AlgoNone payload must be the raw line")
	}
	dec, err := e.Decompress(c)
	if err != nil || !bytes.Equal(dec, l) {
		t.Fatal("AlgoNone round trip failed")
	}
}

func TestEngineTargetEnforced(t *testing.T) {
	e := NewEngine()
	if e.Target != 30 {
		t.Fatalf("default target = %d, want 30 (paper)", e.Target)
	}
	// Construct a line BDI compresses to 26 bytes (b8d2): compressible.
	l := make([]byte, LineSize)
	base := uint64(0x123456789ABC0000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(l[i*8:], base+uint64(i*1000))
	}
	if !e.Compressible(l) {
		t.Fatal("b8d2 line should be compressible to 30B")
	}

	// With an impossible target nothing is compressible.
	tight := &Engine{Target: 0}
	if tight.Compressible(l) {
		t.Fatal("target 0 should reject everything")
	}
}

func TestEngineCompressedPayloadIsolated(t *testing.T) {
	// Mutating the input line after Compress must not change the result.
	e := NewEngine()
	l := make([]byte, LineSize)
	c := e.Compress(l)
	l[0] = 0xFF
	dec, err := e.Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != 0 {
		t.Fatal("compressed payload aliases the input line")
	}
}

func TestEngineDecompressErrors(t *testing.T) {
	e := NewEngine()
	cases := []Compressed{
		{Algo: AlgoNone, Payload: make([]byte, 10)},
		{Algo: AlgoBDI, Payload: nil},
		{Algo: Algorithm(9), Payload: make([]byte, LineSize)},
	}
	for i, c := range cases {
		if _, err := e.Decompress(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	for a, want := range map[Algorithm]string{AlgoNone: "none", AlgoBDI: "bdi", AlgoFPC: "fpc", Algorithm(7): "Algorithm(7)"} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", uint8(a), a.String())
		}
	}
}

// Property: engine round-trips every line exactly, compressed or not.
func TestEngineQuickRoundTrip(t *testing.T) {
	e := NewEngine()
	f := func(raw [LineSize]byte) bool {
		l := raw[:]
		c := e.Compress(l)
		dec, err := e.Decompress(c)
		return err == nil && bytes.Equal(dec, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: anything the engine marks compressible fits the target with
// room for the 2-byte metadata header in a 32-byte sub-rank.
func TestEngineCompressibleFitsSubRank(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		l := genCompressibleCandidate(rng)
		c := e.Compress(l)
		if c.Algo != AlgoNone && len(c.Pack()) > e.Target {
			t.Fatalf("compressed size %d exceeds target %d", len(c.Pack()), e.Target)
		}
		if c.Algo != AlgoNone && len(c.Pack())+2 > 32 {
			t.Fatalf("compressed line + header does not fit a sub-rank")
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(13))
	seen := map[Algorithm]int{}
	for trial := 0; trial < 3000; trial++ {
		var l []byte
		switch trial % 3 {
		case 0:
			l = genCompressibleCandidate(rng)
		case 1:
			l = make([]byte, LineSize)
			for w := 0; w < 16; w++ {
				binary.LittleEndian.PutUint32(l[w*4:], uint32(rng.Intn(64)))
			}
		default:
			l = line64(func(int) byte { return byte(rng.Intn(256)) })
		}
		c := e.Compress(l)
		seen[c.Algo]++
		if c.Algo == AlgoNone {
			continue
		}
		packed := c.Pack()
		if len(packed) > e.Target {
			t.Fatalf("packed size %d exceeds target", len(packed))
		}
		u, err := Unpack(packed)
		if err != nil {
			t.Fatal(err)
		}
		if u.Algo != c.Algo || !bytes.Equal(u.Payload, c.Payload) {
			t.Fatalf("unpack mismatch: %v vs %v", u.Algo, c.Algo)
		}
		dec, err := e.Decompress(u)
		if err != nil || !bytes.Equal(dec, l) {
			t.Fatal("packed round trip failed")
		}
	}
	if seen[AlgoBDI] == 0 || seen[AlgoFPC] == 0 || seen[AlgoNone] == 0 {
		t.Fatalf("test corpus did not exercise all algorithms: %v", seen)
	}
}

func TestUnpackErrors(t *testing.T) {
	if _, err := Unpack(nil); err == nil {
		t.Fatal("expected error on empty payload")
	}
	if _, err := Unpack([]byte{200}); err == nil {
		t.Fatal("expected error on unknown tag")
	}
}

func BenchmarkBDICompress(b *testing.B) {
	l := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(l[i*8:], 0x1000+uint64(i*3))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BDICompress(l)
	}
}

func BenchmarkFPCCompress(b *testing.B) {
	l := make([]byte, LineSize)
	for w := 0; w < 16; w++ {
		binary.LittleEndian.PutUint32(l[w*4:], uint32(w))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FPCCompress(l)
	}
}

func BenchmarkEngineCompress(b *testing.B) {
	e := NewEngine()
	l := make([]byte, LineSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Compress(l)
	}
}
