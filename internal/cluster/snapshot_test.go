package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/snap"
	"attache/internal/tier"
)

// clusterBatch builds the i-th batch of a deterministic mixed op
// sequence over a 256-line working set.
func clusterBatch(rng *rand.Rand, i int) []shard.Op {
	switch rng.Intn(3) {
	case 0:
		return []shard.Op{{Write: true, Addr: uint64(rng.Intn(256)), Data: testLine(uint64(i))}}
	case 1:
		return []shard.Op{{Addr: uint64(rng.Intn(256))}}
	default:
		ops := make([]shard.Op, 0, 8)
		for j := 0; j < 8; j++ {
			addr := uint64(rng.Intn(256))
			if j%2 == 0 {
				ops = append(ops, shard.Op{Write: true, Addr: addr, Data: testLine(uint64(i*8 + j))})
			} else {
				ops = append(ops, shard.Op{Addr: addr})
			}
		}
		return ops
	}
}

// TestClusterSnapshotRestore: a drained multi-instance tiered cluster
// round-trips through snapv1 — the restored cluster carries the same
// instance count, byte-identical merged books (including the tier
// section), and serves the written lines.
func TestClusterSnapshotRestore(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 13
	shardCfg := shard.Config{
		Shards: 2,
		Tier:   &tier.Config{NearLines: 8, Policy: tier.PolicyLRU},
	}
	cl, err := New(opts, shardCfg, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		if _, err := do(cl, clusterBatch(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := cl.EngineSnapshot()
	if want.Tiers == nil {
		t.Fatal("tiered cluster snapshot has no merged tier section")
	}

	var buf bytes.Buffer
	if err := cl.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore: the snapshot is authoritative for shard count and tier
	// config, so the restore-side shard config stays empty.
	re, err := RestoreFrom(&buf, shard.Config{}, Config{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer re.Close()

	if re.Instances() != cl.Instances() {
		t.Fatalf("restored %d instances, want %d", re.Instances(), cl.Instances())
	}
	if got := re.EngineSnapshot(); !reflect.DeepEqual(want, got) {
		t.Fatalf("merged snapshots diverged:\noriginal %+v\nrestored %+v", want, got)
	}

	// The restored cluster must stay in lockstep with the original on a
	// shared second half. Router state is rebuilt fresh on restore (it is
	// a load-balancing hint, not behavioral state), so the first half is
	// an even number of batches — round-robin over 2 instances lands both
	// counters on the same instance.
	for i := 200; i < 320; i++ {
		ops := clusterBatch(rng, i)
		a, aerr := do(cl, append([]shard.Op(nil), ops...))
		b, berr := do(re, append([]shard.Op(nil), ops...))
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("batch %d: call errors diverged: %v vs %v", i, aerr, berr)
		}
		for k := range a {
			if !bytes.Equal(a[k].Data, b[k].Data) {
				t.Fatalf("batch %d op %d: data diverged", i, k)
			}
			if (a[k].Err == nil) != (b[k].Err == nil) {
				t.Fatalf("batch %d op %d: errors diverged: %v vs %v", i, k, a[k].Err, b[k].Err)
			}
		}
	}
	if as, bs := cl.EngineSnapshot(), re.EngineSnapshot(); !reflect.DeepEqual(as, bs) {
		t.Fatalf("final merged snapshots diverged:\noriginal %+v\nrestored %+v", as, bs)
	}
}

// TestClusterTierMerge: the merged EngineSnapshot tier section is the
// exact accumulation of the per-instance tier snapshots.
func TestClusterTierMerge(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 21
	cl, err := New(opts, shard.Config{Shards: 2, Tier: &tier.Config{NearLines: 4}}, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 150; i++ {
		if _, err := do(cl, clusterBatch(rng, i)); err != nil {
			t.Fatal(err)
		}
	}

	var want tier.Snapshot
	for _, eng := range cl.engines {
		ts, ok := eng.TierSnapshot()
		if !ok {
			t.Fatal("instance is not tiered")
		}
		want.Accumulate(ts)
	}
	got := cl.EngineSnapshot().Tiers
	if got == nil {
		t.Fatal("merged snapshot has no tier section")
	}
	if !reflect.DeepEqual(want, *got) {
		t.Fatalf("merged tier section is not the per-instance sum:\nsum    %+v\nmerged %+v", want, *got)
	}
	if got.Promotions != got.Demotions+got.NearResident {
		t.Fatalf("merged promotion balance broken: %d promotions, %d demotions, %d resident",
			got.Promotions, got.Demotions, got.NearResident)
	}
}

// TestClusterUntieredNoTierSection: classic clusters must not grow a
// tier section in the merged snapshot.
func TestClusterUntieredNoTierSection(t *testing.T) {
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := writeOne(t.Context(), cl, 1, testLine(1)); err != nil {
		t.Fatal(err)
	}
	if s := cl.EngineSnapshot(); s.Tiers != nil {
		t.Fatalf("untiered cluster grew a tier section: %+v", s.Tiers)
	}
}

// TestClusterRestoreRejects pins the cluster restore failure modes:
// engine-less snapshots are corrupt, and per-instance restore failures
// name the instance and leak no engines.
func TestClusterRestoreRejects(t *testing.T) {
	t.Run("no-engines", func(t *testing.T) {
		_, err := RestoreFrom(bytes.NewReader(snap.NewEncoder(0).Bytes()), shard.Config{}, Config{})
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("empty snapshot: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("instance-restore-failure", func(t *testing.T) {
		cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, 2, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// A caller-supplied tier config is rejected per instance.
		_, err = RestoreFrom(bytes.NewReader(cl.Snapshot()), shard.Config{Tier: &tier.Config{NearLines: 4}}, Config{})
		if err == nil {
			t.Fatal("restore with caller tier config succeeded")
		}
		if !strings.Contains(err.Error(), "instance 0") {
			t.Fatalf("error %q does not name the failing instance", err)
		}
	})
	t.Run("decode-failure", func(t *testing.T) {
		if _, err := RestoreFrom(bytes.NewReader([]byte("not a snapshot")), shard.Config{}, Config{}); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("garbage stream: got %v, want ErrCorrupt", err)
		}
	})
}
