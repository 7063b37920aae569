package cluster

import (
	"fmt"
	"io"

	"attache/internal/shard"
	"attache/internal/snap"
)

// Snapshot returns the whole cluster as one snapv1 image: the framing,
// then every instance's section in instance order. The image is one cut
// across instances: every shard lock of every instance is held before any
// is encoded, so an image that holds a write holds every write
// acknowledged before that one was sent. Safe at any time, including
// after Close.
func (c *Cluster) Snapshot() []byte {
	cur := snap.NewEncoder(len(c.engines))
	c.engines[0].EncodeSnapshot(cur, c.engines[1:]...)
	return cur.Bytes()
}

// WriteSnapshot writes the cluster's Snapshot to out.
func (c *Cluster) WriteSnapshot(out io.Writer) error {
	_, err := out.Write(c.Snapshot())
	return err
}

// RestoreFrom reads a snapv1 snapshot from r and rebuilds the cluster it
// holds: one engine per serialized instance (each through
// shard.DecodeEngine, so the snapshot is authoritative for options,
// tier configuration, and shard count), fronted by cfg's admission
// control. Placement needs no state: the instance count fixes it, and
// the snapshot carries that. Admission state is rebuilt fresh — it is a
// rate limit, not behavioral state, and is not part of snapv1. On any
// failure every engine already built is closed.
func RestoreFrom(r io.Reader, shardCfg shard.Config, cfg Config) (_ *Cluster, err error) {
	cur, n, err := snap.Open(r)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("cluster: snapshot has no engines: %w", snap.ErrCorrupt)
	}
	engines := make([]*shard.Engine, 0, n)
	defer func() {
		if err != nil {
			for _, e := range engines {
				e.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		eng, err := shard.DecodeEngine(cur, shardCfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: restoring instance %d: %w", i, err)
		}
		engines = append(engines, eng)
	}
	if err := cur.Finish(); err != nil {
		return nil, err
	}
	return Wrap(engines, cfg)
}
