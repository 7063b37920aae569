package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// dictFriendlyLine builds data CPack handles well and BDI/FPC handle
// poorly: a few distinct full 32-bit values repeated in arbitrary order,
// plus partial matches sharing upper bytes.
func dictFriendlyLine(rng *rand.Rand) []byte {
	vocab := []uint32{
		rng.Uint32() | 0x10000, rng.Uint32() | 0x20000, rng.Uint32() | 0x30000,
	}
	l := make([]byte, LineSize)
	for w := 0; w < 16; w++ {
		v := vocab[rng.Intn(len(vocab))]
		if rng.Intn(4) == 0 {
			v = v&0xFFFFFF00 | uint32(rng.Intn(256)) // partial match
		}
		binary.LittleEndian.PutUint32(l[w*4:], v)
	}
	return l
}

func TestCPackZeroLine(t *testing.T) {
	enc, ok := CPackCompress(make([]byte, LineSize))
	if !ok {
		t.Fatal("zero line did not compress")
	}
	// 16 words x 2 bits = 32 bits = 4 bytes.
	if len(enc) != 4 {
		t.Fatalf("zero line size = %d, want 4", len(enc))
	}
	dec, err := CPackDecompress(enc)
	if err != nil || !bytes.Equal(dec, make([]byte, LineSize)) {
		t.Fatal("round trip failed")
	}
}

func TestCPackDictionaryMatches(t *testing.T) {
	// One value repeated 16 times: first word is a miss (34 bits), the
	// remaining 15 full matches (6 bits each): 124 bits = 16 bytes.
	l := make([]byte, LineSize)
	for w := 0; w < 16; w++ {
		binary.LittleEndian.PutUint32(l[w*4:], 0xDEADBEEF)
	}
	enc, ok := CPackCompress(l)
	if !ok {
		t.Fatal("repeated line did not compress")
	}
	if len(enc) != 16 {
		t.Fatalf("size = %d, want 16", len(enc))
	}
	dec, err := CPackDecompress(enc)
	if err != nil || !bytes.Equal(dec, l) {
		t.Fatal("round trip failed")
	}
}

func TestCPackPartialMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		l := dictFriendlyLine(rng)
		enc, ok := CPackCompress(l)
		if !ok {
			continue
		}
		dec, err := CPackDecompress(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dec, l) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestCPackBeatsBDIAndFPCOnDictionaryData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wins := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		l := dictFriendlyLine(rng)
		cp := CPackSize(l)
		if cp < BDISize(l) && cp < FPCSize(l) {
			wins++
		}
	}
	if wins < trials/2 {
		t.Fatalf("cpack won only %d/%d on dictionary-friendly data", wins, trials)
	}
}

func TestCPackSmallByteWords(t *testing.T) {
	l := make([]byte, LineSize)
	for w := 0; w < 16; w++ {
		binary.LittleEndian.PutUint32(l[w*4:], uint32(w*7))
	}
	enc, ok := CPackCompress(l)
	if !ok {
		t.Fatal("small-byte line did not compress")
	}
	dec, err := CPackDecompress(enc)
	if err != nil || !bytes.Equal(dec, l) {
		t.Fatal("round trip failed")
	}
}

func TestCPackDecompressErrors(t *testing.T) {
	if _, err := CPackDecompress(nil); err == nil {
		t.Fatal("expected error on empty stream")
	}
	// A stream starting with a dictionary reference is invalid: the
	// dictionary is empty.
	var w BitWriter
	w.WriteBits(0b10, 2)
	w.WriteBits(0, 4)
	if _, err := CPackDecompress(w.Bytes()); err == nil {
		t.Fatal("expected dictionary-index error")
	}
	// Invalid 1111 prefix.
	var w2 BitWriter
	w2.WriteBits(0b1111, 4)
	w2.WriteBits(0, 60)
	if _, err := CPackDecompress(w2.Bytes()); err == nil {
		t.Fatal("expected prefix error")
	}
}

func TestCPackCompressPanicsOnShortLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CPackCompress(make([]byte, 10))
}

// Property: CPack round-trips every compressible line exactly.
func TestCPackQuickRoundTrip(t *testing.T) {
	f := func(raw [LineSize]byte) bool {
		l := raw[:]
		enc, ok := CPackCompress(l)
		if !ok {
			return true
		}
		dec, err := CPackDecompress(enc)
		return err == nil && bytes.Equal(dec, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedEngineSelectsCPack(t *testing.T) {
	std := NewEngine()
	ext := NewExtendedEngine()
	rng := rand.New(rand.NewSource(7))
	cpWins, extBetter := 0, 0
	for trial := 0; trial < 400; trial++ {
		l := dictFriendlyLine(rng)
		ce := ext.Compress(l)
		cs := std.Compress(l)
		if ce.Algo == AlgoCPack {
			cpWins++
			dec, err := ext.Decompress(ce)
			if err != nil || !bytes.Equal(dec, l) {
				t.Fatal("extended round trip failed")
			}
		}
		if ce.Algo != AlgoNone && cs.Algo == AlgoNone {
			extBetter++
		}
	}
	if cpWins < 100 {
		t.Fatalf("cpack selected only %d/400 times on dictionary data", cpWins)
	}
	if extBetter < 50 {
		t.Fatalf("extended engine rescued only %d lines the standard engine rejected", extBetter)
	}
}

func TestExtendedEnginePackedPadded(t *testing.T) {
	ext := NewExtendedEngine()
	rng := rand.New(rand.NewSource(13))
	var dst [LineSize]byte
	checked := 0
	for trial := 0; trial < 1000; trial++ {
		l := dictFriendlyLine(rng)
		c := ext.Compress(l)
		if c.Algo != AlgoCPack {
			continue
		}
		padded := make([]byte, 30)
		copy(padded, c.Pack())
		if err := DecodePacked(&dst, padded); err != nil || !bytes.Equal(dst[:], l) {
			t.Fatalf("padded round trip failed (err %v)", err)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d cpack payloads checked", checked)
	}
}

func BenchmarkCPackCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := dictFriendlyLine(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CPackCompress(l)
	}
}
