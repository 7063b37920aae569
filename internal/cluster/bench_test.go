package cluster

import (
	"context"
	"math/rand"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
)

// BenchmarkClusterBatch64 is the cluster rung of the ladder: 64-op
// batches, half reads and half writes over 4 Ki prefilled lines, through
// the bare Engine.DoCtx and through Cluster.DoCtx around that same
// engine, in one run. The cluster arm reports cluster/engine, its time
// per batch over the engine arm's: what admission and the SLO books cost
// a batch.
func BenchmarkClusterBatch64(b *testing.B) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := Wrap([]*shard.Engine{eng}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const lines, batch = 4096, 64
	for a := uint64(0); a < lines; a++ {
		if err := eng.Write(a, testLine(a)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	batches := make([][]shard.Op, 16)
	for i := range batches {
		batches[i] = make([]shard.Op, batch)
		for j := range batches[i] {
			op := &batches[i][j]
			op.Addr = uint64(rng.Intn(lines))
			if op.Write = j%2 == 0; op.Write {
				op.Data = testLine(rng.Uint64())
			}
		}
	}

	ctx := context.Background()
	var engineNs float64 // the engine arm's time per batch, from its last run
	for _, arm := range []struct {
		name string
		do   func(context.Context, []shard.Op) ([]shard.Result, error)
	}{{"engine", eng.DoCtx}, {"cluster", cl.DoCtx}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := arm.do(ctx, batches[i%len(batches)])
				if err != nil {
					b.Fatal(err)
				}
				if res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(batch*1e9/ns, "ops/s")
			if arm.name == "engine" {
				engineNs = ns
			} else if engineNs > 0 {
				b.ReportMetric(ns/engineNs, "cluster/engine")
			}
		})
	}
}
