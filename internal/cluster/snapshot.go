package cluster

import (
	"io"

	"attache/internal/shard"
)

// Snapshot returns the engine as one snapv1 image. The image is one cut:
// every shard lock is held before any shard is encoded, so an image that
// holds a write holds every write acknowledged before that one was sent.
// Safe at any time, including after Close.
func (c *Cluster) Snapshot() []byte { return c.eng.Snapshot() }

// RestoreFrom reads a snapv1 snapshot from r and rebuilds the engine it
// holds (shard.RestoreEngineFrom: the snapshot is authoritative for
// options, tier configuration and shard count), fronted by cfg's
// admission control. An image of more than one engine is refused with
// snap.ErrMultiEngine. Admission state is rebuilt fresh: it is a rate
// limit, not behavioral state, and is not part of snapv1.
func RestoreFrom(r io.Reader, shardCfg shard.Config, cfg Config) (*Cluster, error) {
	eng, err := shard.RestoreEngineFrom(r, shardCfg)
	if err != nil {
		return nil, err
	}
	return Wrap([]*shard.Engine{eng}, cfg)
}
