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
		if _, err := do(cl, modelBatch(rng)); err != nil {
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
