package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// its table past its peak size; Prefetch allocates nothing.
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
		// write after a Take the slot the Take lent out, whether it
		// stores the line again or hands back the form Take returned
		// (which a collided form may not be).
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
		if n := testing.AllocsPerRun(200, func() { m.Take(c.addr); m.Write(c.addr, c.line) }); n != 0 {
			t.Errorf("%s: Take then Write allocates %.1f times, want 0", c.name, n)
		}
		if !c.collision {
			raw := (*[LineSize]byte)(c.line)
			if n := testing.AllocsPerRun(200, func() { st, _ := m.Take(c.addr); m.WriteStored(c.addr, raw, st) }); n != 0 {
				t.Errorf("%s: Take then WriteStored allocates %.1f times, want 0", c.name, n)
			}
		}
		if n := testing.AllocsPerRun(200, func() { m.Read(c.addr) }); n > 1 {
			t.Errorf("%s: Memory.Read allocates %.1f times, want at most 1 (the returned line)", c.name, n)
		}
		if n := testing.AllocsPerRun(200, func() { m.Prefetch(c.addr) }); n != 0 {
			t.Errorf("%s: Memory.Prefetch allocates %.1f times, want 0", c.name, n)
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

// TestPrefetchChangesNothing: Prefetch is a cache hint and nothing else.
// Two memories take the same writes and reads, one of them with a
// Prefetch before every op — of an empty memory, of never-written
// addresses, of the line the op touches — with the predictor on and off.
// Every read answers alike, and the counters and the snapshot (line
// table, BLEM and COPR state, LRU clocks included) end equal.
func TestPrefetchChangesNothing(t *testing.T) {
	off := DefaultOptions()
	off.DisablePredictor = true
	for _, opts := range []Options{DefaultOptions(), off} {
		plain, err := NewMemory(opts)
		if err != nil {
			t.Fatal(err)
		}
		hinted, err := NewMemory(opts)
		if err != nil {
			t.Fatal(err)
		}
		hinted.Prefetch(7)
		if got, want := hinted.StatsSnapshot(), plain.StatsSnapshot(); got != want {
			t.Errorf("predictor off=%v: Prefetch on an empty memory: %+v, want %+v", opts.DisablePredictor, got, want)
		}
		rng := rand.New(rand.NewSource(38))
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(300)) * 7
			hinted.Prefetch(addr)
			hinted.Prefetch(addr + 1) // never written
			if rng.Intn(3) == 0 {
				line := compressibleLine(i)
				if i%2 == 0 {
					line = randomLine(rng)
				}
				if err := plain.Write(addr, line); err != nil {
					t.Fatal(err)
				}
				if err := hinted.Write(addr, line); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, werr := plain.Read(addr)
			got, gerr := hinted.Read(addr)
			if !bytes.Equal(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("predictor off=%v: read %d of %#x: %x, %v; without Prefetch %x, %v", opts.DisablePredictor, i, addr, got, gerr, want, werr)
			}
		}
		if got, want := hinted.StatsSnapshot(), plain.StatsSnapshot(); got != want {
			t.Errorf("predictor off=%v: counters %+v, without Prefetch %+v", opts.DisablePredictor, got, want)
		}
		if !bytes.Equal(snapshot(hinted), snapshot(plain)) {
			t.Errorf("predictor off=%v: Prefetch changed the memory's snapshot", opts.DisablePredictor)
		}
	}
}

// TestWriteStoredMatchesWrite: handing back the form Take returned leaves
// a memory exactly as storing the line again does, in every stored form
// but the collided one, which WriteStored refuses: the same snapshot
// image, counters and BLEM books.
func TestWriteStoredMatchesWrite(t *testing.T) {
	for _, c := range hotPathClasses(t) {
		var mems [2]*Memory
		for i := range mems {
			m, err := NewMemory(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Write(c.addr, c.line); err != nil {
				t.Fatal(err)
			}
			mems[i] = m
		}
		st, ok := mems[1].Take(c.addr)
		if !ok || st.Collision != c.collision {
			t.Fatalf("%s: Take = %v, %v", c.name, st, ok)
		}
		mems[0].Take(c.addr)
		if err := mems[0].Write(c.addr, c.line); err != nil {
			t.Fatal(err)
		}
		if c.collision {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: WriteStored of a collided form did not panic", c.name)
					}
				}()
				mems[1].WriteStored(c.addr, (*[LineSize]byte)(c.line), st)
			}()
			continue
		}
		mems[1].WriteStored(c.addr, (*[LineSize]byte)(c.line), st)
		if a, b := mems[0].StatsSnapshot(), mems[1].StatsSnapshot(); a != b {
			t.Errorf("%s: stats %+v after Write, %+v after WriteStored", c.name, a, b)
		}
		if a, b := mems[0].Framework().Blem.Stats, mems[1].Framework().Blem.Stats; a != b {
			t.Errorf("%s: BLEM stats %+v after Write, %+v after WriteStored", c.name, a, b)
		}
		if !bytes.Equal(snapshot(mems[0]), snapshot(mems[1])) {
			t.Errorf("%s: the snapshot images differ", c.name)
		}
	}
}
