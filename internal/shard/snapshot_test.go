package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"attache/internal/copr"
	"attache/internal/core"
	"attache/internal/snap"
	"attache/internal/tier"
)

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

// TestSnapshotRestoreEquivalence is the acceptance gate for engine
// snapshot/restore, the pin alongside TestPassthroughBitIdentity: run a
// seeded workload to its midpoint, snapshot, restore into a fresh
// engine, and the second half must be byte-identical op for op on both
// — finishing with byte-identical stats (and tier) snapshots.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	configs := map[string]*tier.Config{
		"untiered": nil,
		"tiered":   {NearLines: 12, Policy: tier.PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 64},
		"lru":      {NearLines: 16, Policy: tier.PolicyLRU},
	}
	for name, tc := range configs {
		t.Run(name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Seed = 7
			cfg := Config{Shards: 2, Tier: tc}
			a, err := New(opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			// First half on the original engine only.
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				if _, err := a.Do(seededBatch(rng, i)); err != nil {
					t.Fatal(err)
				}
			}

			// Snapshot mid-workload and restore. The snapshot carries the
			// options, tier config, and shard count; cfg stays empty.
			b, err := RestoreEngine(a.ExportState(), Config{})
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer b.Close()
			if b.Tiered() != a.Tiered() {
				t.Fatalf("restored engine tiered = %v, want %v", b.Tiered(), a.Tiered())
			}

			// The restored engine must already agree on the books...
			if as, bs := a.StatsSnapshot(), b.StatsSnapshot(); !reflect.DeepEqual(as, bs) {
				t.Fatalf("post-restore snapshots diverged:\noriginal %+v\nrestored %+v", as, bs)
			}

			// ...and stay in lockstep through the second half.
			runLockstep(t, a, b, rng, 200, 400)
			if as, bs := a.StatsSnapshot(), b.StatsSnapshot(); !reflect.DeepEqual(as, bs) {
				t.Fatalf("final snapshots diverged:\noriginal %+v\nrestored %+v", as, bs)
			}
			if tc != nil {
				at, _ := a.TierSnapshot()
				bt, _ := b.TierSnapshot()
				if !reflect.DeepEqual(at, bt) {
					t.Fatalf("tier snapshots diverged:\noriginal %+v\nrestored %+v", at, bt)
				}
			}
		})
	}
}

// TestSnapshotRestoreFromStream: the same equivalence holds through
// the wire format — WriteSnapshot then RestoreEngineFrom, not just the
// in-memory state tree.
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

	b, err := RestoreEngine(a.ExportState(), Config{})
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

// TestRestoreEngineRejects pins the restore-side validation: empty
// snapshots, shard-count mismatches, and caller-supplied tier configs
// are refused up front.
func TestRestoreEngineRejects(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 1
	eng, err := New(opts, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := eng.ExportState()

	// withCopr returns a copy of st whose first shard's predictor state
	// went through mutate, leaving st itself intact for the other cases.
	withCopr := func(mutate func(*copr.State)) *snap.EngineState {
		cp := *st
		cp.Shards = append([]snap.ShardState(nil), st.Shards...)
		mem, pred := *st.Shards[0].Mem, *st.Shards[0].Mem.Copr
		mutate(&pred)
		mem.Copr = &pred
		cp.Shards[0].Mem = &mem
		return &cp
	}

	cases := []struct {
		name string
		st   *snap.EngineState
		cfg  Config
		want string
	}{
		{"nil-state", nil, Config{}, "no shards"},
		{"empty-state", &snap.EngineState{}, Config{}, "no shards"},
		{"shard-mismatch", st, Config{Shards: 5}, "configured 5 shards but snapshot has 2"},
		{"caller-tier", st, Config{Tier: &tier.Config{NearLines: 4}}, "cfg.Tier must be nil"},
		{"predictor-hits-over-total", withCopr(func(p *copr.State) { p.Overall = copr.RatioState{Hits: 2, Total: 1} }),
			Config{}, "2 hits out of 1 predictions"},
		{"predictor-source-hits-over-total", withCopr(func(p *copr.State) { p.BySource[copr.SourceGI] = copr.RatioState{Hits: 9, Total: 3} }),
			Config{}, "9 hits out of 3 predictions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := RestoreEngine(tc.st, tc.cfg)
			if err == nil {
				e.Close()
				t.Fatalf("restore succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	t.Run("multi-engine-stream", func(t *testing.T) {
		var buf bytes.Buffer
		if err := snap.Encode(&buf, &snap.ClusterState{Engines: []*snap.EngineState{st, st}}); err != nil {
			t.Fatal(err)
		}
		e, err := RestoreEngineFrom(&buf, Config{})
		if err == nil {
			e.Close()
			t.Fatal("RestoreEngineFrom accepted a 2-engine snapshot")
		}
		if !strings.Contains(err.Error(), "want 1") {
			t.Fatalf("error %q does not point at the cluster restore path", err)
		}
	})
}
