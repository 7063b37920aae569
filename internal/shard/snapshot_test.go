package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"attache/internal/copr"
	"attache/internal/core"
	"attache/internal/snap"
	"attache/internal/tier"
)

// image is the engine's WriteSnapshot output.
func image(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withEngines copies a sealed image with the u32 engine count at byte 8
// (after the magic and the version) set to n, and reseals the CRC-32C
// trailer.
func withEngines(img []byte, n uint32) []byte {
	b := append([]byte(nil), img[:len(img)-4]...)
	binary.LittleEndian.PutUint32(b[8:], n)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// seededBatch builds the i-th batch of a deterministic chaos-flavored
// op sequence: single writes, single reads, and 8-op mixed batches over
// a 256-line working set, exactly the shape TestPassthroughBitIdentity
// pins for cluster passthrough.
func seededBatch(rng *rand.Rand, i int) []Op {
	switch rng.Intn(3) {
	case 0:
		return []Op{{Write: true, Addr: uint64(rng.Intn(256)), Data: testLine(uint64(i))}}
	case 1:
		return []Op{{Addr: uint64(rng.Intn(256))}}
	default:
		ops := make([]Op, 0, 8)
		for j := 0; j < 8; j++ {
			addr := uint64(rng.Intn(256))
			if j%2 == 0 {
				ops = append(ops, Op{Write: true, Addr: addr, Data: testLine(uint64(i*8 + j))})
			} else {
				ops = append(ops, Op{Addr: addr})
			}
		}
		return ops
	}
}

// runLockstep submits the same seeded batches to both engines and
// fails on the first per-op divergence (data bytes, error presence, or
// error text).
func runLockstep(t *testing.T, a, b *Engine, rng *rand.Rand, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		ops := seededBatch(rng, i)
		want, werr := a.Do(append([]Op(nil), ops...))
		got, gerr := b.Do(append([]Op(nil), ops...))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("batch %d: call errors diverged: %v vs %v", i, werr, gerr)
		}
		for k := range want {
			if !bytes.Equal(want[k].Data, got[k].Data) {
				t.Fatalf("batch %d op %d: data diverged", i, k)
			}
			if (want[k].Err == nil) != (got[k].Err == nil) {
				t.Fatalf("batch %d op %d: errors diverged: %v vs %v", i, k, want[k].Err, got[k].Err)
			}
			if want[k].Err != nil && want[k].Err.Error() != got[k].Err.Error() {
				t.Fatalf("batch %d op %d: error text diverged: %q vs %q", i, k, want[k].Err, got[k].Err)
			}
		}
	}
}

// TestSnapshotRestoreFromStream: the same equivalence holds for three
// shards under the default (lru) policy, reading straight from the
// buffer WriteSnapshot filled.
func TestSnapshotRestoreFromStream(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 11
	a, err := New(opts, Config{Shards: 3, Tier: &tier.Config{NearLines: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 150; i++ {
		if _, err := a.Do(seededBatch(rng, i)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := RestoreEngineFrom(&buf, Config{})
	if err != nil {
		t.Fatalf("restore from stream: %v", err)
	}
	defer b.Close()

	runLockstep(t, a, b, rng, 150, 300)
	if as, bs := a.StatsSnapshot(), b.StatsSnapshot(); !reflect.DeepEqual(as, bs) {
		t.Fatalf("snapshots diverged after stream restore:\noriginal %+v\nrestored %+v", as, bs)
	}
}

// TestSnapshotAfterClose: -snapshot-on-drain captures final state after
// Close; the restored engine must serve reads of everything written and
// carry the exact final books.
func TestSnapshotAfterClose(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 3
	a, err := New(opts, Config{Shards: 2, Tier: &tier.Config{NearLines: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	for i := 0; i < 64; i++ {
		addr := uint64(i % 32)
		line := testLine(uint64(i))
		if err := a.Write(addr, line); err != nil {
			t.Fatal(err)
		}
		want[addr] = line
	}
	stats := a.StatsSnapshot()
	a.Close()

	b, err := RestoreEngineFrom(bytes.NewReader(image(t, a)), Config{})
	if err != nil {
		t.Fatalf("restore after close: %v", err)
	}
	defer b.Close()
	if bs := b.StatsSnapshot(); !reflect.DeepEqual(stats, bs) {
		t.Fatalf("restored stats diverged from pre-close books:\nwant %+v\ngot  %+v", stats, bs)
	}
	for addr, line := range want {
		got, err := b.Read(addr)
		if err != nil {
			t.Fatalf("read %#x after restore: %v", addr, err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("line %#x diverged after restore", addr)
		}
	}
}

// TestSnapshotUnderLoad: WriteSnapshot walks the live memories, so it
// must hold every shard still while it does. Writers hammer a tiered
// engine while snapshots are cut; each must restore — the restore-side
// checks (gauges against stored lines, exclusive residency, sorted
// addresses) refuse a torn cut — and the race detector watches the walk.
func TestSnapshotUnderLoad(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Predictor.PaPRBytes, opts.Predictor.LiPRBytes = 1<<10, 1<<10 // small images: the walk is not what is being timed
	eng, err := New(opts, Config{Shards: 2, Tier: &tier.Config{NearLines: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Do(seededBatch(rng, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 8; i++ {
		re, err := RestoreEngineFrom(bytes.NewReader(image(t, eng)), Config{})
		if err != nil {
			t.Errorf("snapshot %d cut under load does not restore: %v", i, err)
			break
		}
		re.Close()
	}
	close(stop)
	wg.Wait()
}

// TestZeroCapacityNearEngineBitIdentity: an engine configured with a
// zero-capacity near tier is bit-identical to a plain engine — same
// data, same errors, same stats books — with the tier section showing
// pure far traffic.
func TestZeroCapacityNearEngineBitIdentity(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 5
	plain, err := New(opts, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	tiered, err := New(opts, Config{Shards: 2, Tier: &tier.Config{NearLines: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	rng := rand.New(rand.NewSource(9))
	runLockstep(t, plain, tiered, rng, 0, 300)

	ps, ts := plain.StatsSnapshot(), tiered.StatsSnapshot()
	if ts.Tiers == nil {
		t.Fatal("tiered engine snapshot has no tier section")
	}
	if ts.Tiers.NearReads != 0 || ts.Tiers.NearWrites != 0 || ts.Tiers.Promotions != 0 || ts.Tiers.NearResident != 0 {
		t.Fatalf("zero-capacity near tier saw traffic: %+v", ts.Tiers)
	}
	// Blind the comparison to the tier section itself: everything else
	// (totals, per-shard, percentiles) must match the plain engine.
	ts.Tiers = nil
	if !reflect.DeepEqual(ps, ts) {
		t.Fatalf("zero-capacity tiered stats diverged from plain engine:\nplain  %+v\ntiered %+v", ps, ts)
	}
}

// TestRestoreEngineRejects pins the restore-side validation: images
// that count no engines or two, empty engines, shard-count mismatches, caller-supplied tier configs and
// impossible predictor books are refused up front.
func TestRestoreEngineRejects(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 1
	newEngine := func(t *testing.T) *Engine {
		eng, err := New(opts, Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	good := image(t, newEngine(t))

	// An engine section that announces no shards: the header alone.
	noShards := snap.NewEncoder()
	(&header{opts: opts}).walk(noShards)

	// badBooks snapshots an engine whose first shard's predictor had its
	// accuracy books set to something no predictor can reach.
	badBooks := func(set func(*copr.Stats)) []byte {
		eng := newEngine(t)
		set(&eng.shards[0].mem.Framework().Copr.Stats)
		return image(t, eng)
	}

	cases := []struct {
		name  string
		image []byte
		cfg   Config
		want  string
	}{
		{"empty-state", noShards.Bytes(), Config{}, "no shards"},
		{"shard-mismatch", good, Config{Shards: 5}, "configured 5 shards but snapshot has 2"},
		{"caller-tier", good, Config{Tier: &tier.Config{NearLines: 4}}, "cfg.Tier must be nil"},
		{"predictor-hits-over-total", badBooks(func(s *copr.Stats) { s.Overall.Restore(2, 1) }),
			Config{}, "2 hits out of 1 predictions"},
		{"predictor-source-hits-over-total", badBooks(func(s *copr.Stats) { s.BySource[copr.SourceGI].Restore(9, 3) }),
			Config{}, "9 hits out of 3 predictions"},
		{"no-engines", withEngines(good, 0), Config{}, "no engines"},
		{"multi-engine-stream", withEngines(good, 2), Config{}, "want 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := RestoreEngineFrom(bytes.NewReader(tc.image), tc.cfg)
			if err == nil {
				e.Close()
				t.Fatalf("restore succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsHostileOptions: the options section of a snapshot
// is outside input. Configurations copr.New would panic on, and table
// budgets the rest of the image cannot possibly fill, are refused before
// anything is built from them — quickly, without a panic, and without
// allocating out of proportion to the input.
func TestRestoreRejectsHostileOptions(t *testing.T) {
	eng, err := New(core.DefaultOptions(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := uint64(0); i < 64; i++ {
		if err := eng.Write(i, testLine(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Split a real image into its header and everything after it.
	img := image(t, eng)
	c, err := snap.Open(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	var h header
	h.walk(c)
	rest := make([]byte, c.Remaining())
	c.Raw(rest)

	for name, mutate := range map[string]func(*copr.Config){
		"zero-ways":       func(p *copr.Config) { p.PaPRWays = 0 },
		"gi-not-pow2":     func(p *copr.Config) { p.GICounters = 3 },
		"negative-memory": func(p *copr.Config) { p.MemorySize = -1 },
		"gigabyte-tables": func(p *copr.Config) { p.PaPRBytes, p.LiPRBytes = 1<<30, 1<<30 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := h
			mutate(&bad.opts.Predictor)
			enc := snap.NewEncoder()
			bad.walk(enc)
			enc.Raw(rest)
			hostile := enc.Bytes()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			e, err := RestoreEngineFrom(bytes.NewReader(hostile), Config{})
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if err == nil {
				e.Close()
				t.Fatal("restore accepted hostile predictor options")
			}
			if !errors.Is(err, snap.ErrCorrupt) && !errors.Is(err, core.ErrOutOfRange) {
				t.Fatalf("error %v wraps neither ErrCorrupt nor ErrOutOfRange", err)
			}
			if took > time.Second {
				t.Fatalf("refusal took %v", took)
			}
			// Whatever restore allocates is bounded by a count or a
			// configured size it has checked against the remaining input.
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(hostile)); grew > limit {
				t.Fatalf("refusing %d bytes allocated %d, limit %d", len(hostile), grew, limit)
			}
		})
	}
}

// TestFixtureSectionsPopulated: the committed snapv1 fixtures (pinned
// byte for byte by snap's TestFixtures) are only a pin if every optional
// section is in them. Read off the live state they restore to: both
// predictor tables, Replacement Area entries, and — tiered — near lines
// and freq counters.
func TestFixtureSectionsPopulated(t *testing.T) {
	for file, tiered := range map[string]bool{"untiered-predictor.snapv1": false, "tiered-freq.snapv1": true} {
		t.Run(file, func(t *testing.T) {
			f, err := os.Open(filepath.Join("..", "snap", "testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			eng, err := RestoreEngineFrom(f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if pc, on := eng.opts.PredictorConfig(); !on || !pc.EnablePaPR || !pc.EnableLiPR {
				t.Fatal("fixture has no predictor tables")
			}
			var ra, near, freq int
			for _, w := range eng.shards {
				ra += w.mem.Framework().Blem.ReplacementArea().Len()
				if w.tier == nil {
					continue
				}
				// The tier section opens u64 n | n × 80 B near lines |
				// u64 freq-counter count. It follows the 12-byte framing
				// (magic, version, engine count).
				c := snap.NewEncoder()
				const framing = 12
				w.tier.WalkSnap(c)
				n := int(w.tier.Snapshot().NearResident)
				near += n
				freq += int(binary.LittleEndian.Uint64(c.Bytes()[framing+8+80*n:]))
			}
			if ra == 0 || tiered && (near == 0 || freq == 0) {
				t.Fatalf("fixture sections empty: RA=%d near=%d freq=%d", ra, near, freq)
			}
		})
	}
}
