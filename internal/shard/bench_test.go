package shard

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"attache/internal/core"
)

// BenchmarkShardedThroughput measures lines/second through the engine at
// 1..8 shards against the single-Memory serial baseline, with every
// client goroutine submitting mixed 64-op batches (3 reads per write).
// Scaling beyond 1 shard needs >1 CPU; on a 1-CPU host the sharded
// numbers track the baseline minus pipeline overhead.
func BenchmarkShardedThroughput(b *testing.B) {
	const batch = 64
	const space = 1 << 14 // line addresses touched

	mkOps := func(rng *rand.Rand, line []byte) []Op {
		ops := make([]Op, batch)
		for i := range ops {
			a := uint64(rng.Intn(space))
			if i%4 == 0 {
				ops[i] = Op{Write: true, Addr: a, Data: line}
			} else {
				ops[i] = Op{Addr: a % (space / 2)} // reads stay in the prefilled half
			}
		}
		return ops
	}
	line := make([]byte, core.LineSize)
	for w := 0; w < 8; w++ {
		line[w*8] = byte(w)
	}

	b.Run("baseline-memory", func(b *testing.B) {
		mem, err := core.NewMemory(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for a := uint64(0); a < space/2; a++ {
			if err := mem.Write(a, line); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range mkOps(rng, line) {
				if op.Write {
					if err := mem.Write(op.Addr, op.Data); err != nil {
						b.Fatal(err)
					}
				} else if _, err := mem.Read(op.Addr); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "lines/s")
	})

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			benchShards(b, shards, batch, space, mkOps, line)
		})
	}
}

func benchShards(b *testing.B, shards, batch, space int, mkOps func(*rand.Rand, []byte) []Op, line []byte) {
	e, err := New(core.DefaultOptions(), Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for a := uint64(0); a < uint64(space/2); a++ {
		if err := e.Write(a, line); err != nil {
			b.Fatal(err)
		}
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			res, err := e.Do(mkOps(rng, line))
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range res {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkSubmitLatency isolates the submission pipeline itself: tiny
// fixed batches against a prefilled engine, so ns/op is dominated by
// routing + locking rather than compression work, and allocs/op is
// exactly the envelope cost the pool is supposed to elide.
//
// Every mode is "uncontended/…": serial finds each shard free, parallel
// contends only as much as -cpu makes it. The busy-shard path is what
// BenchmarkShardedThroughput measures at -cpu 2 and up.
func BenchmarkSubmitLatency(b *testing.B) {
	line := make([]byte, core.LineSize)
	mkBatch := func(n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			a := uint64(i * 37)
			if i%2 == 0 {
				ops[i] = Op{Write: true, Addr: a, Data: line}
			} else {
				ops[i] = Op{Addr: a}
			}
		}
		return ops
	}
	for _, n := range []int{1, 8} {
		mk := func(b *testing.B) *Engine {
			e, err := New(core.DefaultOptions(), Config{Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			for a := uint64(0); a < 512; a++ {
				if err := e.Write(a, line); err != nil {
					b.Fatal(err)
				}
			}
			return e
		}
		b.Run(fmt.Sprintf("uncontended/ops%d/serial", n), func(b *testing.B) {
			e := mk(b)
			defer e.Close()
			ops := mkBatch(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Do(ops); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("uncontended/ops%d/parallel", n), func(b *testing.B) {
			e := mk(b)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ops := mkBatch(n)
				for pb.Next() {
					if _, err := e.Do(ops); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
