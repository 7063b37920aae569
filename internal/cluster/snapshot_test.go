package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/snap"
	"attache/internal/tier"
)

// modelBatch builds one batch of a seeded mixed sequence over 16 pages
// of 16 lines each: mostly one-op batches, a third of them 2-8 mixed
// ops. The pages spread over the instances, so multi-op batches split.
func modelBatch(rng *rand.Rand) []shard.Op {
	n := 1
	if rng.Intn(3) == 0 {
		n = 2 + rng.Intn(7)
	}
	ops := make([]shard.Op, n)
	for i := range ops {
		ops[i].Addr = uint64(rng.Intn(16))<<pagePrefixBits | uint64(rng.Intn(16))
		if ops[i].Write = rng.Intn(2) == 0; ops[i].Write {
			ops[i].Data = testLine(rng.Uint64())
		}
	}
	return ops
}

// TestSnapshotIsOneCut: one writer alternates between a line on instance
// 0 and one on instance 1, writing its sequence number, while snapshots
// are cut; every image must hold a prefix of the writes. Full-size
// predictor tables make instance 0's encoding long enough that the writer
// waits on it, and 256-op batches keep instance 1's shards busy: a cluster
// cut instance by instance lands the writer's next write on instance 1
// ahead of its cut (30 runs in 30 fail that way).
func TestSnapshotIsOneCut(t *testing.T) {
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var at [2][]uint64 // one line address per page, by instance
	for a := uint64(0); len(at[0]) == 0 || len(at[1]) <= 256; a += 1 << pagePrefixBits {
		at[instanceFor(a, 2)] = append(at[instanceFor(a, 2)], a)
	}
	noise := make([]shard.Op, 256)
	for i := range noise {
		noise[i] = shard.Op{Write: true, Addr: at[1][i+1], Data: testLine(0)}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, write := range []func(i uint64) error{
		func(i uint64) error { return writeOne(t.Context(), cl, at[i%2][0], testLine(i+1)) },
		func(uint64) error { _, err := do(cl, noise); return err },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				if err := write(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var images [][]byte
	for range 8 {
		images = append(images, cl.Snapshot())
	}
	stop.Store(true)
	wg.Wait()
	for n, image := range images {
		re, err := RestoreFrom(bytes.NewReader(image), shard.Config{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var last [2]int64 // the sequence number each instance holds, 0 for none
		for k := range last {
			if data, err := readOne(t.Context(), re, at[k][0]); err == nil {
				last[k] = int64(binary.LittleEndian.Uint64(data))
			}
		}
		re.Close()
		if d := last[0] - last[1]; d < -1 || d > 1 {
			t.Fatalf("image %d holds write %d on instance 0 and write %d on instance 1: not a prefix of the writes", n, last[0], last[1])
		}
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
