package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/snap"
	"attache/internal/tier"
)

// TestSnapshotIsOneCut: one writer alternates between a line on shard 0
// and one on shard 1, writing its sequence number, while snapshots are
// cut; every image must hold a prefix of the writes. Full-size predictor
// tables make shard 0's encoding long enough that the writer waits on it,
// and 256-op batches keep shard 1 busy: an engine cut shard by shard
// lands the writer's next write on shard 1 ahead of its cut.
func TestSnapshotIsOneCut(t *testing.T) {
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var at [2][]uint64 // addresses by the shard the engine places them on
	for a := uint64(0); len(at[0]) == 0 || len(at[1]) <= 256; a++ {
		before := cl.EngineSnapshot().PerShard[1].Writes
		if err := writeOne(t.Context(), cl, a, testLine(0)); err != nil {
			t.Fatal(err)
		}
		k := int(cl.EngineSnapshot().PerShard[1].Writes - before)
		at[k] = append(at[k], a)
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
		var last [2]int64 // the sequence number each shard holds, 0 for none
		for k := range last {
			data, err := readOne(t.Context(), re, at[k][0])
			if err != nil {
				t.Fatal(err)
			}
			last[k] = int64(binary.LittleEndian.Uint64(data))
		}
		re.Close()
		if d := last[0] - last[1]; d < -1 || d > 1 {
			t.Fatalf("image %d holds write %d on shard 0 and write %d on shard 1: not a prefix of the writes", n, last[0], last[1])
		}
	}
}

// TestClusterUntieredNoTierSection: an untiered cluster's snapshot has
// no tier section.
func TestClusterUntieredNoTierSection(t *testing.T) {
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, Config{})
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
// an image that counts no engines is corrupt, one that counts two is
// refused, and an engine restore failure is the cluster's.
func TestClusterRestoreRejects(t *testing.T) {
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// withEngines copies the image with the u32 engine count at byte 8
	// (after the magic and the version) set to n, resealed.
	withEngines := func(n uint32) []byte {
		b := cl.Snapshot()
		b = b[:len(b)-4]
		binary.LittleEndian.PutUint32(b[8:], n)
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	}
	t.Run("no-engines", func(t *testing.T) {
		if _, err := RestoreFrom(bytes.NewReader(withEngines(0)), shard.Config{}, Config{}); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("zero-engine image: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("multi-engine", func(t *testing.T) {
		if _, err := RestoreFrom(bytes.NewReader(withEngines(2)), shard.Config{}, Config{}); !errors.Is(err, snap.ErrMultiEngine) {
			t.Fatalf("two-engine image: got %v, want ErrMultiEngine", err)
		}
	})
	t.Run("instance-restore-failure", func(t *testing.T) {
		// The snapshot carries the tier configuration: a caller's is
		// refused.
		_, err := RestoreFrom(bytes.NewReader(cl.Snapshot()), shard.Config{Tier: &tier.Config{NearLines: 4}}, Config{})
		if err == nil || !strings.Contains(err.Error(), "cfg.Tier must be nil") {
			t.Fatalf("restore with caller tier config: got %v, want the engine's refusal", err)
		}
	})
	t.Run("decode-failure", func(t *testing.T) {
		if _, err := RestoreFrom(bytes.NewReader([]byte("not a snapshot")), shard.Config{}, Config{}); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("garbage stream: got %v, want ErrCorrupt", err)
		}
	})
}
