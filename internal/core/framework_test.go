package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"attache/internal/copr"
)

func compressibleLine(i int) []byte {
	l := make([]byte, LineSize)
	base := uint64(0xABCD0000_00000000)
	for w := 0; w < 8; w++ {
		binary.LittleEndian.PutUint64(l[w*8:], base+uint64(i*8+w))
	}
	return l
}

func randomLine(rng *rand.Rand) []byte {
	l := make([]byte, LineSize)
	rng.Read(l)
	return l
}

func newFramework(t *testing.T) *Framework {
	t.Helper()
	f, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStoreLoadCompressedRoundTrip(t *testing.T) {
	f := newFramework(t)
	for i := 0; i < 200; i++ {
		data := compressibleLine(i)
		st, tr, err := f.Store(uint64(i), data)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Compressed || tr.BlocksTouched != 1 {
			t.Fatalf("line %d: compressed=%v blocks=%d", i, st.Compressed, tr.BlocksTouched)
		}
		got, _, err := f.Load(uint64(i), st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("line %d round trip mismatch", i)
		}
	}
}

func TestStoreLoadUncompressedRoundTrip(t *testing.T) {
	f := newFramework(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		data := randomLine(rng)
		st, tr, err := f.Store(uint64(i), data)
		if err != nil {
			t.Fatal(err)
		}
		if st.Compressed {
			t.Fatalf("random line %d stored compressed", i)
		}
		if tr.BlocksTouched != 2 {
			t.Fatalf("uncompressed store touched %d blocks", tr.BlocksTouched)
		}
		got, _, err := f.Load(uint64(i), st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("line %d round trip mismatch", i)
		}
	}
}

func TestScramblingPreventsAdversarialCollisions(t *testing.T) {
	// An all-zero uncompressed line would match a zero CID on every
	// write without scrambling. Scrambling makes the stored bits
	// pseudo-random, so collisions stay at the 2^-cidBits rate. Here we
	// store a *barely incompressible* repeating pattern across many
	// addresses and verify collisions are rare.
	f := newFramework(t)
	rng := rand.New(rand.NewSource(3))
	collisions := 0
	const n = 20000
	for i := 0; i < n; i++ {
		data := randomLine(rng)
		st, _, err := f.Store(uint64(i), data)
		if err != nil {
			t.Fatal(err)
		}
		if st.Collision {
			collisions++
			// Collided lines must still round-trip exactly.
			got, tr, err := f.Load(uint64(i), st)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("collided line %d corrupt", i)
			}
			if !tr.RAAccess {
				t.Fatal("collision load must touch the Replacement Area")
			}
		}
	}
	// Expected n * 2^-15 ~= 0.6; allow up to 8.
	if collisions > 8 {
		t.Fatalf("collisions = %d/%d, want ~0", collisions, n)
	}
}

func TestPredictorLearnsAndSavesBandwidth(t *testing.T) {
	f := newFramework(t)
	// Same page, all compressible: after warmup, loads should touch one
	// block with correct predictions.
	stored := map[uint64]StoredLine{}
	for i := 0; i < 64; i++ {
		st, _, err := f.Store(uint64(i), compressibleLine(i))
		if err != nil {
			t.Fatal(err)
		}
		stored[uint64(i)] = st
	}
	misses := 0
	for i := 0; i < 64; i++ {
		_, tr, err := f.Load(uint64(i), stored[uint64(i)])
		if err != nil {
			t.Fatal(err)
		}
		if tr.Mispredicted {
			misses++
		}
		if !tr.Mispredicted && tr.BlocksTouched != 1 {
			t.Fatalf("correct compressed prediction touched %d blocks", tr.BlocksTouched)
		}
	}
	if misses > 4 {
		t.Fatalf("mispredictions = %d/64 after write-warmed predictor", misses)
	}
}

func TestMispredictionCorrected(t *testing.T) {
	// Predictor disabled -> conservative fetch of both blocks; the data
	// must still be exact for compressed lines.
	opts := DefaultOptions()
	opts.DisablePredictor = true
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := compressibleLine(1)
	st, _, _ := f.Store(9, data)
	got, tr, err := f.Load(9, st)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
	if tr.BlocksTouched != 2 {
		t.Fatalf("conservative load touched %d blocks", tr.BlocksTouched)
	}
}

func TestStoreRejectsBadLength(t *testing.T) {
	f := newFramework(t)
	if _, _, err := f.Store(0, make([]byte, 63)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestNewRejectsBadCID(t *testing.T) {
	opts := DefaultOptions()
	opts.CIDBits = 16
	if _, err := New(opts); err == nil {
		t.Fatal("expected CID width error")
	}
}

func TestStorageOverheadMatchesPaper(t *testing.T) {
	f := newFramework(t)
	got := f.StorageOverheadBytes()
	if got < 368<<10 || got > 369<<10 {
		t.Fatalf("overhead = %d bytes, want ~368 KB", got)
	}
}

// Property: Store/Load round-trips arbitrary content at arbitrary
// addresses, with and without the predictor.
func TestFrameworkRoundTripProperty(t *testing.T) {
	opts := DefaultOptions()
	opts.Predictor = copr.DefaultConfig()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(addr uint64, raw [LineSize]byte) bool {
		st, _, err := f.Store(addr, raw[:])
		if err != nil {
			return false
		}
		got, _, err := f.Load(addr, st)
		return err == nil && bytes.Equal(got, raw[:])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedCompressionRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	opts.ExtendedCompression = true
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	// Dictionary-style data: a small vocabulary of full words.
	sawCompressed := false
	for trial := 0; trial < 300; trial++ {
		line := make([]byte, LineSize)
		vocab := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
		for w := 0; w < 16; w++ {
			v := vocab[rng.Intn(3)]
			binary.LittleEndian.PutUint32(line[w*4:], v)
		}
		st, _, err := f.Store(uint64(trial), line)
		if err != nil {
			t.Fatal(err)
		}
		if st.Compressed {
			sawCompressed = true
		}
		got, _, err := f.Load(uint64(trial), st)
		if err != nil || !bytes.Equal(got, line) {
			t.Fatalf("trial %d round trip failed", trial)
		}
	}
	if !sawCompressed {
		t.Fatal("extended engine compressed nothing on vocabulary data")
	}
}

func TestMemoryContainer(t *testing.T) {
	m, err := NewMemory(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	written := map[uint64][]byte{}
	for i := 0; i < 500; i++ {
		addr := uint64(rng.Intn(300))
		var data []byte
		if rng.Intn(2) == 0 {
			data = compressibleLine(i)
		} else {
			data = randomLine(rng)
		}
		if err := m.Write(addr, data); err != nil {
			t.Fatal(err)
		}
		written[addr] = data
	}
	for addr, want := range written {
		got, err := m.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("addr %d mismatch", addr)
		}
	}
	if m.Lines() != len(written) {
		t.Fatalf("lines = %d, want %d", m.Lines(), len(written))
	}
	if m.stats.Reads != uint64(len(written)) {
		t.Fatal("read counter wrong")
	}
	if acc := m.PredictionAccuracy(); acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestMemoryReadUnwritten(t *testing.T) {
	m, _ := NewMemory(DefaultOptions())
	if _, err := m.Read(42); err == nil {
		t.Fatal("expected error for unwritten line")
	}
}

func TestMemoryBandwidthSavingsPositiveForCompressibleData(t *testing.T) {
	m, _ := NewMemory(DefaultOptions())
	for i := 0; i < 2000; i++ {
		if err := m.Write(uint64(i), compressibleLine(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := m.Read(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// All lines compressible: writes move 1 block instead of 2; reads
	// mostly 1 after the predictor warms. Savings should approach 50%.
	if s := m.stats.BandwidthSavings(); s < 0.40 {
		t.Fatalf("bandwidth savings = %.3f, want > 0.40", s)
	}
}

func TestCompressedLinesGaugeTracksOverwrites(t *testing.T) {
	m, _ := NewMemory(DefaultOptions())
	rng := rand.New(rand.NewSource(31))
	if err := m.Write(1, compressibleLine(0)); err != nil {
		t.Fatal(err)
	}
	if m.stats.CompressedLines != 1 {
		t.Fatalf("gauge = %d, want 1", m.stats.CompressedLines)
	}
	// Overwrite with incompressible content: the gauge must drop.
	if err := m.Write(1, randomLine(rng)); err != nil {
		t.Fatal(err)
	}
	if m.stats.CompressedLines != 0 {
		t.Fatalf("gauge = %d after uncompressible overwrite, want 0", m.stats.CompressedLines)
	}
	// And recover when compressible data returns.
	if err := m.Write(1, compressibleLine(2)); err != nil {
		t.Fatal(err)
	}
	if m.stats.CompressedLines != 1 {
		t.Fatalf("gauge = %d, want 1", m.stats.CompressedLines)
	}
}

// TestGaugeUnderflowPanics: a gauge decremented below zero is an
// accounting bug and must fail loudly, not wrap to 2^64-1.
func TestGaugeUnderflowPanics(t *testing.T) {
	g := uint64(2)
	dec(&g)
	dec(&g)
	if g != 0 {
		t.Fatalf("gauge = %d, want 0", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("decrementing zero should panic")
		}
	}()
	dec(&g)
}
