package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"attache/internal/core"
)

// testLine builds a deterministic 64-byte line for addr: even addresses
// get array-like (compressible) content, odd get pseudo-random bytes.
func testLine(addr uint64) []byte {
	line := make([]byte, core.LineSize)
	if addr%2 == 0 {
		base := uint64(0x7F0000000000) + addr*4096
		for w := 0; w < 8; w++ {
			binary.LittleEndian.PutUint64(line[w*8:], base+addr%512)
		}
	} else {
		rng := rand.New(rand.NewSource(int64(addr)))
		rng.Read(line)
	}
	return line
}

func newTestEngine(t testing.TB, shards int, cfg Config) *Engine {
	t.Helper()
	cfg.Shards = shards
	e, err := New(core.DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestRoundTripAcrossShards checks exact Store/Load round-trips for every
// shard count, interleaving rewrites.
func TestRoundTripAcrossShards(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			e := newTestEngine(t, n, Config{})
			const lines = 512
			for a := uint64(0); a < lines; a++ {
				if err := e.Write(a, testLine(a)); err != nil {
					t.Fatalf("write %d: %v", a, err)
				}
			}
			// Rewrite a quarter with different content.
			for a := uint64(0); a < lines; a += 4 {
				if err := e.Write(a, testLine(a+10_000)); err != nil {
					t.Fatalf("rewrite %d: %v", a, err)
				}
			}
			for a := uint64(0); a < lines; a++ {
				want := testLine(a)
				if a%4 == 0 {
					want = testLine(a + 10_000)
				}
				got, err := e.Read(a)
				if err != nil {
					t.Fatalf("read %d: %v", a, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round trip mismatch at %d", a)
				}
			}
			snap := e.StatsSnapshot()
			if snap.Total.Lines != lines {
				t.Fatalf("snapshot lines = %d, want %d", snap.Total.Lines, lines)
			}
		})
	}
}

// TestSingleShardMatchesMemory pins the acceptance criterion that >1
// shard scaling does not change single-shard results: a 1-shard engine
// must be bit-identical to a plain Memory fed the same op sequence.
func TestSingleShardMatchesMemory(t *testing.T) {
	opts := core.DefaultOptions()
	mem, err := core.NewMemory(opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(opts, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const lines = 400
	for a := uint64(0); a < lines; a++ {
		line := testLine(a)
		if err := mem.Write(a, line); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(a, line); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < lines; a++ {
			want, err := mem.Read(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Read(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d addr %d: engine diverges from Memory", pass, a)
			}
		}
	}
	if got, want := e.StatsSnapshot().Total, mem.StatsSnapshot(); got != want {
		t.Fatalf("1-shard snapshot diverges from Memory:\n  engine %+v\n  memory %+v", got, want)
	}
}

// TestBatchSemantics checks order preservation and per-op failure
// isolation: bad ops fail alone, their neighbours succeed.
func TestBatchSemantics(t *testing.T) {
	e := newTestEngine(t, 4, Config{MaxLines: 1 << 16})
	if err := e.Write(7, testLine(7)); err != nil {
		t.Fatal(err)
	}

	ops := []Op{
		{Addr: 7},  // ok read
		{Addr: 99}, // never written
		{Write: true, Addr: 8, Data: testLine(8)},     // ok write
		{Write: true, Addr: 9, Data: []byte("short")}, // bad line size
		{Addr: 1 << 20}, // beyond MaxLines
		{Addr: 8},       // reads the write two slots up (same batch, same shard order)
	}
	res, err := e.Do(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || !bytes.Equal(res[0].Data, testLine(7)) {
		t.Fatalf("op0: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, core.ErrNeverWritten) {
		t.Fatalf("op1 err = %v, want ErrNeverWritten", res[1].Err)
	}
	if res[2].Err != nil {
		t.Fatalf("op2: %v", res[2].Err)
	}
	if !errors.Is(res[3].Err, core.ErrBadLineSize) {
		t.Fatalf("op3 err = %v, want ErrBadLineSize", res[3].Err)
	}
	if !errors.Is(res[4].Err, core.ErrOutOfRange) {
		t.Fatalf("op4 err = %v, want ErrOutOfRange", res[4].Err)
	}
	if res[5].Err != nil || !bytes.Equal(res[5].Data, testLine(8)) {
		t.Fatalf("op5 did not observe the in-batch write: %v", res[5].Err)
	}

	// A read-only batch returns its lines in op order.
	if _, err := e.Do([]Op{{Write: true, Addr: 20, Data: testLine(20)}, {Write: true, Addr: 21, Data: testLine(21)}}); err != nil {
		t.Fatal(err)
	}
	rres, err := e.Do([]Op{{Addr: 21}, {Addr: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rres[0].Data, testLine(21)) || !bytes.Equal(rres[1].Data, testLine(20)) {
		t.Fatal("batch read order not preserved")
	}
}

// TestSnapshotMerge checks that the merged totals equal the sum of the
// per-shard snapshots and count every op exactly once.
func TestSnapshotMerge(t *testing.T) {
	e := newTestEngine(t, 4, Config{})
	const lines = 600
	for a := uint64(0); a < lines; a++ {
		if err := e.Write(a, testLine(a)); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(0); a < lines; a += 2 {
		if _, err := e.Read(a); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.StatsSnapshot()
	if len(snap.PerShard) != 4 {
		t.Fatalf("per-shard snapshots = %d, want 4", len(snap.PerShard))
	}
	var sum core.StatsSnapshot
	for _, s := range snap.PerShard {
		sum.Accumulate(s)
	}
	if sum != snap.Total {
		t.Fatalf("total %+v != accumulated per-shard %+v", snap.Total, sum)
	}
	if snap.Total.Writes != lines || snap.Total.Reads != lines/2 || snap.Total.Lines != lines {
		t.Fatalf("lost ops in merge: %+v", snap.Total)
	}
	// Every shard should have received some of the 600 mixed addresses.
	for i, s := range snap.PerShard {
		if s.Lines == 0 {
			t.Fatalf("shard %d received no lines: address mixing is broken", i)
		}
	}
}

// TestClose checks drain-then-reject semantics.
func TestClose(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, testLine(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := e.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close err = %v, want ErrClosed", err)
	}
	if _, err := e.Read(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}
	if err := e.Write(2, testLine(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v, want ErrClosed", err)
	}
	// A post-drain snapshot still works and still holds the traffic.
	if snap := e.StatsSnapshot(); snap.Total.Writes != 1 || snap.Total.Lines != 1 {
		t.Fatalf("post-close snapshot lost traffic: %+v", snap.Total)
	}
}

// TestConcurrentHammer is the -race test of the data-race satellite: 16
// goroutines hammer one sharded engine with single ops, batches, and
// snapshots, each verifying exact round-trips in its own address range
// and in a shared read-only region.
func TestConcurrentHammer(t *testing.T) {
	e := newTestEngine(t, 4, Config{QueueDepth: 16})

	// Shared read-only region, written before the hammer starts.
	const sharedLines = 64
	for a := uint64(0); a < sharedLines; a++ {
		if err := e.Write(a, testLine(a)); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	const opsPer = 400
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := uint64(1000 + g*10_000) // private range per goroutine
			written := make(map[uint64]uint64)
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(5) {
				case 0: // single write
					a := base + uint64(rng.Intn(256))
					v := uint64(rng.Intn(1 << 20))
					if err := e.Write(a, testLine(v)); err != nil {
						errc <- fmt.Errorf("g%d write: %w", g, err)
						return
					}
					written[a] = v
				case 1: // single read of own data
					for a, v := range written {
						got, err := e.Read(a)
						if err != nil || !bytes.Equal(got, testLine(v)) {
							errc <- fmt.Errorf("g%d read %d: %v", g, a, err)
							return
						}
						break
					}
				case 2: // shared-region read
					a := uint64(rng.Intn(sharedLines))
					got, err := e.Read(a)
					if err != nil || !bytes.Equal(got, testLine(a)) {
						errc <- fmt.Errorf("g%d shared read %d: %v", g, a, err)
						return
					}
				case 3: // mixed batch over own range + shared
					ops := make([]Op, 0, 8)
					for k := 0; k < 4; k++ {
						a := base + uint64(rng.Intn(256))
						v := uint64(rng.Intn(1 << 20))
						ops = append(ops, Op{Write: true, Addr: a, Data: testLine(v)})
						written[a] = v
						ops = append(ops, Op{Addr: uint64(rng.Intn(sharedLines))})
					}
					res, err := e.Do(ops)
					if err != nil {
						errc <- fmt.Errorf("g%d batch: %w", g, err)
						return
					}
					for j, r := range res {
						if r.Err != nil {
							errc <- fmt.Errorf("g%d batch op %d: %w", g, j, r.Err)
							return
						}
					}
				case 4: // stats snapshot racing the traffic
					snap := e.StatsSnapshot()
					if snap.Total.Reads+snap.Total.Writes == 0 {
						errc <- fmt.Errorf("g%d empty snapshot mid-hammer", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Post-hammer: the shared region is intact and counters are sane.
	for a := uint64(0); a < sharedLines; a++ {
		got, err := e.Read(a)
		if err != nil || !bytes.Equal(got, testLine(a)) {
			t.Fatalf("shared region corrupted at %d: %v", a, err)
		}
	}
	snap := e.StatsSnapshot()
	if snap.Total.Lines < sharedLines {
		t.Fatalf("lines vanished: %+v", snap.Total)
	}
}

// TestConfigValidation pins the constructor's range checks.
func TestConfigValidation(t *testing.T) {
	if _, err := New(core.DefaultOptions(), Config{Shards: -1}); !errors.Is(err, core.ErrOutOfRange) {
		t.Fatalf("negative shards err = %v, want ErrOutOfRange", err)
	}
	opts := core.DefaultOptions()
	opts.CIDBits = 99
	if _, err := New(opts, Config{Shards: 2}); !errors.Is(err, core.ErrOutOfRange) {
		t.Fatalf("bad CID width err = %v, want ErrOutOfRange", err)
	}
	e, err := New(core.DefaultOptions(), Config{}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() < 1 {
		t.Fatal("default shard count must be >= 1")
	}
}
