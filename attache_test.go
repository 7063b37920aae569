package attache_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"attache"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow.
func TestPublicAPIQuickstart(t *testing.T) {
	mem, err := attache.NewMemory(attache.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, attache.LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], 0x1000+uint64(i))
	}
	if err := mem.Write(42, line); err != nil {
		t.Fatal(err)
	}
	back, err := mem.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, line) {
		t.Fatal("round trip mismatch")
	}
	if s := mem.StatsSnapshot().BandwidthSavings(); s <= 0 {
		t.Fatalf("compressible data saved no bandwidth (%.3f)", s)
	}
	// Two snapshots with no traffic in between agree: StatsSnapshot is the
	// one supported stats surface (the old exported Stats field is gone).
	if mem.StatsSnapshot() != mem.StatsSnapshot() {
		t.Fatal("back-to-back snapshots diverged")
	}
}

func TestPublicFramework(t *testing.T) {
	f, err := attache.New(attache.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.StorageOverheadBytes() < 368<<10 {
		t.Fatal("predictor storage below the paper's 368KB")
	}
	line := make([]byte, attache.LineSize)
	st, tr, err := f.Store(7, line)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Compressed || tr.BlocksTouched != 1 {
		t.Fatal("zero line must compress into one sub-rank block")
	}
	got, _, err := f.Load(7, st)
	if err != nil || !bytes.Equal(got, line) {
		t.Fatal("load failed")
	}
}

// TestFunctionalOptions checks that the constructors refuse Options
// out of range.
func TestFunctionalOptions(t *testing.T) {
	o := attache.DefaultOptions()
	o.CIDBits = 0
	if _, err := attache.NewMemory(o); !errors.Is(err, attache.ErrOutOfRange) {
		t.Fatalf("CID width 0 err = %v, want ErrOutOfRange", err)
	}
	// A predictor sizing copr.New would panic on is an error too.
	o = attache.DefaultOptions()
	o.Predictor.PaPRWays = 0
	if _, err := attache.NewMemory(o); !errors.Is(err, attache.ErrOutOfRange) {
		t.Fatalf("zero PaPR ways err = %v, want ErrOutOfRange", err)
	}
}

// TestSentinelErrors checks the typed errors flow through the public API.
func TestSentinelErrors(t *testing.T) {
	mem, err := attache.NewMemory(attache.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Write(1, []byte("too short")); !errors.Is(err, attache.ErrBadLineSize) {
		t.Fatalf("short write err = %v, want ErrBadLineSize", err)
	}
	if _, err := mem.Read(1); !errors.Is(err, attache.ErrNeverWritten) {
		t.Fatalf("unwritten read err = %v, want ErrNeverWritten", err)
	}
}

// TestMemoryBatch runs a batch as what it is on a Memory: a loop over
// Write and Read that stops at the first error.
func TestMemoryBatch(t *testing.T) {
	mem, err := attache.NewMemory(attache.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(fill byte) []byte {
		l := make([]byte, attache.LineSize)
		for i := range l {
			l[i] = fill
		}
		return l
	}
	for _, a := range []uint64{1, 2, 3} {
		if err := mem.Write(a, mk(byte(a))); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func(addrs ...uint64) (got [][]byte, err error) {
		for _, a := range addrs {
			line, err := mem.Read(a)
			if err != nil {
				return got, err
			}
			got = append(got, line)
		}
		return got, nil
	}
	got, err := readAll(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], mk(3)) || !bytes.Equal(got[1], mk(1)) {
		t.Fatal("batch read order not preserved")
	}
	// The error wraps the sentinel; the successful prefix stands.
	got, err = readAll(1, 99, 2)
	if !errors.Is(err, attache.ErrNeverWritten) {
		t.Fatalf("batch read err = %v, want ErrNeverWritten", err)
	}
	if len(got) != 1 {
		t.Fatalf("batch read prefix = %d lines, want 1", len(got))
	}
}

// TestPublicEngine smoke-tests the concurrent entry point through the
// public surface; the heavy concurrency coverage lives in internal/shard.
func TestPublicEngine(t *testing.T) {
	eng, err := attache.NewEngine(attache.DefaultOptions(), attache.EngineConfig{Shards: 2, MaxLines: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	line := make([]byte, attache.LineSize)
	if err := eng.Write(5, line); err != nil {
		t.Fatal(err)
	}
	back, err := eng.Read(5)
	if err != nil || !bytes.Equal(back, line) {
		t.Fatalf("engine round trip: %v", err)
	}
	if err := eng.Write(4096, line); !errors.Is(err, attache.ErrOutOfRange) {
		t.Fatalf("beyond MaxLines err = %v, want ErrOutOfRange", err)
	}
	res, err := eng.Do([]attache.Op{{Write: true, Addr: 6, Data: line}, {Addr: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err != nil || !bytes.Equal(res[1].Data, line) {
		t.Fatal("engine batch round trip failed")
	}
	snap := eng.StatsSnapshot()
	if snap.Total.Writes != 2 || snap.Total.Reads != 2 || len(snap.PerShard) != 2 {
		t.Fatalf("engine snapshot off: %+v", snap.Total)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Read(5); !errors.Is(err, attache.ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}
}
