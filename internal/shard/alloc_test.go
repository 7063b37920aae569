package shard_test

import (
	"context"
	"testing"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
)

// TestUnsampledPathAllocationFree pins the zero-cost-when-untraced
// guarantee on the path every served request takes: a DoCtx whose
// context carries a cancel and a tenant but no trace allocates exactly
// what a plain Do does, on a 1-shard engine and through a cluster around
// one, for single ops and for batches.
func TestUnsampledPathAllocationFree(t *testing.T) {
	line := make([]byte, core.LineSize)
	single := []shard.Op{{Write: true, Addr: 3, Data: line}}
	batch := make([]shard.Op, 8)
	for i := range batch {
		batch[i] = shard.Op{Write: true, Addr: uint64(i * 7), Data: line}
	}
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cl, err := cluster.New(core.DefaultOptions(), shard.Config{Shards: 1}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = obs.ContextWithTenant(ctx, "acme")

	measure := func(do func() ([]shard.Result, error)) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := do(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, ops := range [][]shard.Op{single, batch} {
		base := measure(func() ([]shard.Result, error) { return eng.Do(ops) })
		for name, do := range map[string]func() ([]shard.Result, error){
			"engine DoCtx":  func() ([]shard.Result, error) { return eng.DoCtx(ctx, ops) },
			"cluster DoCtx": func() ([]shard.Result, error) { return cl.DoCtx(ctx, ops) },
		} {
			if got := measure(do); got != base {
				t.Errorf("untraced %s allocates %.1f per %d-op batch, Do %.1f", name, got, len(ops), base)
			}
		}
	}
}
