package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"attache/internal/compress"
)

// hotPathClass is one stored form Store/Load distinguish: which codec
// wins, or which uncompressed path runs.
type hotPathClass struct {
	name      string
	opts      Options
	addr      uint64
	line      []byte
	algo      compress.Algorithm
	collision bool
}

func wordsLine(words [16]uint32) []byte {
	l := make([]byte, LineSize)
	for i, w := range words {
		binary.LittleEndian.PutUint32(l[i*4:], w)
	}
	return l
}

// hotPathClasses builds one line per class and checks the framework
// stores it the way the class says, so the pins and benchmarks below
// cannot silently measure a different path.
func hotPathClasses(tb testing.TB) []hotPathClass {
	tb.Helper()
	extended := DefaultOptions()
	extended.ExtendedCompression = true
	// A 1-bit CID collides with half of all scrambled raw lines, so the
	// Replacement Area path is one address search away.
	narrow := DefaultOptions()
	narrow.CIDBits = 1
	raw := randomLine(rand.New(rand.NewSource(14)))

	classes := []hotPathClass{
		{name: "zero", opts: DefaultOptions(), line: make([]byte, LineSize), algo: compress.AlgoBDI},
		{name: "bdi", opts: DefaultOptions(), line: compressibleLine(3), algo: compress.AlgoBDI},
		// Zero, 4-bit and upper-halfword words: short FPC codes, no BDI base.
		{name: "fpc", opts: DefaultOptions(), algo: compress.AlgoFPC, line: wordsLine([16]uint32{
			0, 5, 0x12340000, 0, 0xFFFFFFFD, 0x56780000, 0, 7, 0, 0x2BCD0000, 0, 3, 0x7EEF0000, 0, 0, 1})},
		// Two unrelated words repeated: dictionary hits after the first two.
		{name: "cpack", opts: extended, algo: compress.AlgoCPack, line: wordsLine([16]uint32{
			0x9E3779B9, 0x7F4A7C15, 0x9E3779B9, 0x9E3779B9, 0x7F4A7C15, 0x9E3779B9, 0x7F4A7C15, 0x7F4A7C15,
			0x9E3779B9, 0x7F4A7C15, 0x7F4A7C15, 0x9E3779B9, 0x9E3779B9, 0x7F4A7C15, 0x9E3779B9, 0x7F4A7C15})},
		{name: "incompressible", opts: DefaultOptions(), line: raw},
		{name: "collision", opts: narrow, line: raw, collision: true},
	}
	for i := range classes {
		c := &classes[i]
		f, err := New(c.opts)
		if err != nil {
			tb.Fatal(err)
		}
		if algo, _ := f.Comp.Choose(c.line); algo != c.algo {
			tb.Fatalf("class %s: engine chose %v, want %v", c.name, algo, c.algo)
		}
		for ; ; c.addr++ {
			st, _, err := f.Store(c.addr, c.line)
			if err != nil {
				tb.Fatal(err)
			}
			if st.Compressed != (c.algo != compress.AlgoNone) {
				tb.Fatalf("class %s: stored compressed=%v", c.name, st.Compressed)
			}
			if st.Collision == c.collision {
				break
			}
		}
	}
	return classes
}

// TestHotPathAllocations pins the codec hot path's allocation budget for
// every stored form: Store builds the line image in stack buffers and
// allocates nothing; Load and Memory.Read allocate the returned line and
// nothing else; a Memory's writes allocate only for an address that takes
// its table past its peak size.
func TestHotPathAllocations(t *testing.T) {
	for _, c := range hotPathClasses(t) {
		f, err := New(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := f.Store(c.addr, c.line)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { f.Store(c.addr, c.line) }); n != 0 {
			t.Errorf("%s: Store allocates %.1f times per line, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(200, func() { f.Load(c.addr, st) }); n > 1 {
			t.Errorf("%s: Load allocates %.1f times per line, want at most 1 (the returned line)", c.name, n)
		}
		var dst [LineSize]byte
		if n := testing.AllocsPerRun(200, func() { f.LoadInto(&dst, c.addr, st) }); n != 0 {
			t.Errorf("%s: LoadInto allocates %.1f times per line, want 0", c.name, n)
		}
		// One rung up: an overwrite reuses the line's table entry, and a
		// re-write after a Delete the entry the Delete set aside.
		m, err := NewMemory(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(c.addr, c.line); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { m.Write(c.addr, c.line) }); n != 0 {
			t.Errorf("%s: Memory.Write over a stored line allocates %.1f times, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(200, func() { m.Delete(c.addr); m.Write(c.addr, c.line) }); n != 0 {
			t.Errorf("%s: Delete then Write allocates %.1f times, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(200, func() { m.Read(c.addr) }); n > 1 {
			t.Errorf("%s: Memory.Read allocates %.1f times, want at most 1 (the returned line)", c.name, n)
		}
	}
}

// TestReadIntoOverwritesDst: every stored form defines all 64 bytes of
// the destination, so a caller may hand ReadInto a dirty buffer — an
// arena slot, a reused array — and Read, its wrapper, returns the same
// bytes. The self-check compares what ReadInto produced.
func TestReadIntoOverwritesDst(t *testing.T) {
	for _, c := range hotPathClasses(t) {
		m, err := NewMemory(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableCheck()
		if err := m.Write(c.addr, c.line); err != nil {
			t.Fatal(err)
		}
		var dst [LineSize]byte
		for i := range dst {
			dst[i] = 0xA5
		}
		if err := m.ReadInto(&dst, c.addr); err != nil || !bytes.Equal(dst[:], c.line) {
			t.Errorf("%s: ReadInto a dirty buffer: %v, got %x", c.name, err, dst)
		}
		if got, err := m.Read(c.addr); err != nil || !bytes.Equal(got, c.line) {
			t.Errorf("%s: Read: %v, got %x", c.name, err, got)
		}
		if n := testing.AllocsPerRun(200, func() { m.ReadInto(&dst, c.addr) }); n != 0 {
			t.Errorf("%s: Memory.ReadInto allocates %.1f times, want 0", c.name, n)
		}
		if err := m.ReadInto(&dst, c.addr+1); !errors.Is(err, ErrNeverWritten) {
			t.Errorf("%s: ReadInto of an unwritten line: %v", c.name, err)
		}
		// A shadow that disagrees with the stored image fails both forms.
		m.shadow[c.addr] = [LineSize]byte{1}
		if err := m.ReadInto(&dst, c.addr); err == nil {
			t.Errorf("%s: self-check missed a divergence", c.name)
		}
		if _, err := m.Read(c.addr); err == nil {
			t.Errorf("%s: self-check missed a divergence through Read", c.name)
		}
	}
}
