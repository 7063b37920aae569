package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/tier"
)

// TestInlineContendedSubmissionQueues forces real contention
// deterministically: the test holds shard 0's execution lock (exactly
// what a long-running submission would), so no claim of a free shard can
// succeed and every submission must wait for the lock. Releasing it lets
// the waiters run one after another, and every op must have landed
// exactly once.
func TestInlineContendedSubmissionQueues(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{Shards: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	w := e.shards[0]
	w.memMu.Lock() // the shard is "busy": no submitter may execute yet

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := e.Do([]Op{{Write: true, Addr: uint64(g), Data: testLine(uint64(g) + 100)}})
			if err != nil {
				errs[g] = err
				return
			}
			errs[g] = res[0].Err
		}(g)
	}
	// All four submissions must end up waiting — none may sneak past the
	// held execution lock.
	deadline := time.Now().Add(5 * time.Second)
	for w.waiters.Load() != goroutines {
		if time.Now().After(deadline) {
			w.memMu.Unlock()
			t.Fatalf("queue depth = %d, want %d (a submitter bypassed a busy shard?)", w.waiters.Load(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	w.memMu.Unlock()
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 0; g < goroutines; g++ {
		data, err := e.Read(uint64(g))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, testLine(uint64(g)+100)) {
			t.Fatalf("write %d lost through the contended path", g)
		}
	}
	if sheds := e.StatsSnapshot().Robust.Sheds; sheds != 0 {
		t.Fatalf("blocking Do shed %d ops under contention", sheds)
	}
}

// TestInlineSubmitPathAllocationBudget pins the steady-state allocation
// cost of a submission, observer off, as absolute counts now that
// Framework.Store and LoadInto allocate nothing: a Do with a
// caller-built batch may allocate the Result slice handed back plus one
// arena for all its reads — 1 for writes only, 2 with reads, whatever
// the batch size — and the one-op convenience wrappers one more (their
// Op-slice literal). The envelope — per-shard index lists, completion
// state, task — must come from the pool.
func TestInlineSubmitPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; absolute budgets only hold without -race")
	}
	e, err := New(core.DefaultOptions(), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	line := testLine(9)
	ops8 := make([]Op, 8)
	for i := range ops8 {
		ops8[i] = Op{Write: true, Addr: uint64(i), Data: line}
	}
	if _, err := e.Do(ops8); err != nil {
		t.Fatal(err)
	}
	reads64, mixed64 := make([]Op, 64), make([]Op, 64)
	for i := range reads64 {
		reads64[i] = Op{Addr: uint64(i % 8)}
		mixed64[i] = reads64[i]
		if i%4 == 0 {
			mixed64[i] = ops8[i%8]
		}
	}
	do := func(ops []Op) func() {
		return func() {
			if _, err := e.Do(ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"one-write Do", do(ops8[3:4]), 1},
		{"one-read Do", do([]Op{{Addr: 3}}), 2},
		// Batches must amortize: the envelope is per submission, not per op.
		{"8-write Do", do(ops8), 1},
		{"64-read Do", do(reads64), 2},
		{"64-op 75%-read Do", do(mixed64), 2},
		{"Write wrapper", func() {
			if err := e.Write(3, line); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"Read wrapper", func() {
			if _, err := e.Read(3); err != nil {
				t.Fatal(err)
			}
		}, 3},
	} {
		if got := testing.AllocsPerRun(300, c.run); got > c.budget+0.1 {
			t.Errorf("%s allocates %.2f times, budget is %.0f", c.name, got, c.budget)
		}
	}
}

// TestShardDistributionBalanced pins shardFor's spread: over strided
// address patterns (the pathological input for a modulo mapping), every
// shard — including non-power-of-two counts — must land within 5% of a
// perfectly even split.
func TestShardDistributionBalanced(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 5, 6, 7, 8, 12} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			e, err := New(core.DefaultOptions(), Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			counts := make([]int, shards)
			n := 0
			for _, stride := range []uint64{1, 2, 3, 4, 5, 7, 8, 16, 64, 512, 4096} {
				for i := uint64(0); i < 4096; i++ {
					counts[e.shardFor(i*stride)]++
					n++
				}
			}
			mean := float64(n) / float64(shards)
			for s, c := range counts {
				dev := (float64(c) - mean) / mean
				if dev < 0 {
					dev = -dev
				}
				if dev > 0.05 {
					t.Fatalf("shard %d holds %d of %d addrs (%.1f%% off an even split, tolerance 5%%)",
						s, c, n, dev*100)
				}
			}
		})
	}
}

// TestPoolReuseNoAliasing is the pool-correctness guard: overlapping
// batches from racing goroutines, with faults and cancellations firing,
// while every goroutine retains its previous Result slices and
// re-verifies them after later submissions. A pooled envelope that
// leaked into a result, or an index slice reused while still referenced,
// shows up here as a retroactively mutated Result.
func TestPoolReuseNoAliasing(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{
		Shards:     2,
		QueueDepth: 4,
		Faults:     FaultPlan{Seed: 11, ErrP: 0.05, PartialP: 0.05, DelayP: 0.02, Delay: 20 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	type retained struct {
		res  []Result
		data [][]byte // deep copies taken at return time
		errs []string
	}
	snapshotOf := func(res []Result) retained {
		r := retained{res: res, data: make([][]byte, len(res)), errs: make([]string, len(res))}
		for i := range res {
			if res[i].Data != nil {
				r.data[i] = append([]byte(nil), res[i].Data...)
			}
			if res[i].Err != nil {
				r.errs[i] = res[i].Err.Error()
			}
		}
		return r
	}
	verify := func(r retained) error {
		for i := range r.res {
			if !bytes.Equal(r.res[i].Data, r.data[i]) {
				return fmt.Errorf("result %d data mutated after return (pool aliasing)", i)
			}
			got := ""
			if r.res[i].Err != nil {
				got = r.res[i].Err.Error()
			}
			if got != r.errs[i] {
				return fmt.Errorf("result %d error mutated after return: %q -> %q", i, r.errs[i], got)
			}
		}
		return nil
	}

	const goroutines = 6
	const iters = 150
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 31))
			var held []retained
			for i := 0; i < iters; i++ {
				n := 1 + rng.Intn(12)
				ops := make([]Op, n)
				for j := range ops {
					a := uint64(rng.Intn(256)) // shared range: batches overlap across goroutines
					if rng.Intn(2) == 0 {
						ops[j] = Op{Write: true, Addr: a, Data: testLine(a + uint64(g*1000+i))}
					} else {
						ops[j] = Op{Addr: a}
					}
				}
				var res []Result
				var err error
				if rng.Intn(4) == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(50))*time.Microsecond)
					res, err = e.DoCtx(ctx, ops)
					cancel()
				} else {
					res, err = e.Do(ops)
				}
				if err != nil {
					if errors.Is(err, context.DeadlineExceeded) {
						continue
					}
					errc <- fmt.Errorf("g%d iter %d: %v", g, i, err)
					return
				}
				if len(res) != len(ops) {
					errc <- fmt.Errorf("g%d iter %d: %d results for %d ops", g, i, len(res), len(ops))
					return
				}
				for j := range res {
					if res[j].Data != nil && res[j].Err != nil {
						errc <- fmt.Errorf("g%d iter %d op %d: torn result (data and error)", g, i, j)
						return
					}
					if ops[j].Write && res[j].Data != nil {
						errc <- fmt.Errorf("g%d iter %d op %d: write returned data", g, i, j)
						return
					}
				}
				held = append(held, snapshotOf(res))
				if len(held) > 4 {
					held = held[1:]
				}
				// Everything returned earlier must still read exactly as it
				// did the moment it was returned.
				for _, h := range held {
					if err := verify(h); err != nil {
						errc <- fmt.Errorf("g%d iter %d: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestReadArenaOwnership pins what a caller may assume about Result.Data
// now that a batch's reads share one arena: the arena is the call's own
// (results read the same after a thousand further batches rewrote and
// reread the same lines), each Data is clipped to its 64 bytes (growing
// or scribbling over one cannot reach its neighbour), and an op that
// failed holds no slot.
func TestReadArenaOwnership(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		cfg := Config{Shards: 2, MaxLines: 1 << 10}
		if tiered {
			cfg.Tier = &tier.Config{NearLines: 8}
		}
		e, err := New(core.DefaultOptions(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		const n = 32
		writes, reads := make([]Op, n), make([]Op, n+2)
		for i := range writes {
			writes[i] = Op{Write: true, Addr: uint64(i), Data: testLine(uint64(i))}
			reads[i] = Op{Addr: uint64(i)}
		}
		reads[n] = Op{Addr: 1 << 11} // out of range: never routed
		reads[n+1] = Op{Addr: 1000}  // never written
		if _, err := e.Do(writes); err != nil {
			t.Fatal(err)
		}
		kept, err := e.Do(reads)
		if err != nil {
			t.Fatal(err)
		}
		for i := n; i < len(kept); i++ {
			if kept[i].Err == nil || kept[i].Data != nil {
				t.Fatalf("tiered=%v: failed read %d: %+v", tiered, i, kept[i])
			}
		}
		for i := 0; i < n; i++ {
			if cap(kept[i].Data) != core.LineSize {
				t.Fatalf("tiered=%v: result %d has capacity %d", tiered, i, cap(kept[i].Data))
			}
		}
		// Growing result 0 must reallocate, and scribbling over all of
		// result 1 must stay inside it.
		_ = append(kept[0].Data, 0xFF)
		for j := range kept[1].Data {
			kept[1].Data[j] = 0xFF
		}
		for i := 0; i < n; i++ {
			if want := testLine(uint64(i)); i != 1 && !bytes.Equal(kept[i].Data, want) {
				t.Fatalf("tiered=%v: result %d changed under its neighbour's hands", tiered, i)
			}
		}

		for round := 0; round < 1000; round++ {
			for i := range writes {
				writes[i].Data = testLine(uint64(i + round + 1))
			}
			if _, err := e.Do(writes); err != nil {
				t.Fatal(err)
			}
			if res, err := e.Do(reads); err != nil || !bytes.Equal(res[5].Data, writes[5].Data) {
				t.Fatalf("tiered=%v round %d: %v", tiered, round, err)
			}
		}
		for i := 0; i < n; i++ {
			if want := testLine(uint64(i)); i != 1 && !bytes.Equal(kept[i].Data, want) {
				t.Fatalf("tiered=%v: result %d of the first batch changed after later batches", tiered, i)
			}
		}
	}
}
