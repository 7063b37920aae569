package shard_test

import (
	"context"
	"errors"
	"testing"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
)

// TestEmptySubmissionAfterClose pins Close's promise for the smallest
// submission: an empty batch on a closed engine fails with ErrClosed
// like any other, through Do, DoCtx and a cluster's DoCtx alike, rather
// than reporting an empty success.
func TestEmptySubmissionAfterClose(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(core.DefaultOptions(), shard.Config{Shards: 2}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Do(nil); err != nil || res == nil || len(res) != 0 {
		t.Fatalf("open engine: Do(nil) = %v, %v, want an empty result and no error", res, err)
	}
	eng.Close()
	cl.Close()
	ctx := context.Background()
	for name, do := range map[string]func() ([]shard.Result, error){
		"Do(nil)":             func() ([]shard.Result, error) { return eng.Do(nil) },
		"Do([]Op{})":          func() ([]shard.Result, error) { return eng.Do([]shard.Op{}) },
		"DoCtx(ctx, nil)":     func() ([]shard.Result, error) { return eng.DoCtx(ctx, nil) },
		"cluster DoCtx(nil)":  func() ([]shard.Result, error) { return cl.DoCtx(ctx, nil) },
		"cluster DoCtx(Op{})": func() ([]shard.Result, error) { return cl.DoCtx(ctx, []shard.Op{}) },
	} {
		if res, err := do(); !errors.Is(err, shard.ErrClosed) || res != nil {
			t.Errorf("%s after Close = %v, %v, want nil, ErrClosed", name, res, err)
		}
	}
}
