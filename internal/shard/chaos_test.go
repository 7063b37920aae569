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
)

// chaosTally is one goroutine's ledger of what it asked for and what it
// was told, keyed the way the conservation check needs it.
type chaosTally struct {
	attemptedReads, attemptedWrites uint64
	okReads, okWrites               uint64
	shedReads, shedWrites           uint64
	faultReads, faultWrites         uint64
}

func (c *chaosTally) add(o chaosTally) {
	c.attemptedReads += o.attemptedReads
	c.attemptedWrites += o.attemptedWrites
	c.okReads += o.okReads
	c.okWrites += o.okWrites
	c.shedReads += o.shedReads
	c.shedWrites += o.shedWrites
	c.faultReads += o.faultReads
	c.faultWrites += o.faultWrites
}

// TestChaosConservation is the chaos regression suite: under seeded
// fault injection (error p=0.05, delay p=0.05) and occasional load
// shedding, the engine must lose no acknowledged write, and the
// engine-side counters must conserve against the caller-side ledger —
// every attempted read is exactly one of a hit, a misprediction, a shed,
// or an injected fault:
//
//	attempted = (Reads - Mispredictions) + Mispredictions + Sheds + InjectedErrors
//
// (hits and mispredictions both complete, so they sit inside Total.Reads).
func TestChaosConservation(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{
		Shards:     2,
		QueueDepth: 4, // small enough that injected delays force real sheds
		Faults:     FaultPlan{Seed: 42, ErrP: 0.05, DelayP: 0.05, Delay: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const goroutines = 4
	const iters = 400
	ctx := context.Background()

	tallies := make([]chaosTally, goroutines)
	acked := make([]map[uint64]uint64, goroutines) // addr -> payload version last acknowledged
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		acked[g] = make(map[uint64]uint64)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			tl := &tallies[g]
			base := uint64(g) * 10_000 // private range: exact read-back verification
			for i := 0; i < iters; i++ {
				if rng.Intn(2) == 0 || len(acked[g]) == 0 { // write
					addr := base + uint64(rng.Intn(64))
					version := uint64(rng.Intn(1 << 20))
					tl.attemptedWrites++
					err := writeCtx(ctx, e, addr, testLine(version))
					switch {
					case err == nil:
						tl.okWrites++
						acked[g][addr] = version // acknowledged: must never be lost
					case errors.Is(err, core.ErrOverloaded):
						tl.shedWrites++
					case errors.Is(err, ErrFaultInjected):
						tl.faultWrites++
					default:
						errc <- fmt.Errorf("g%d write: unexpected %v", g, err)
						return
					}
				} else { // read something this goroutine was told landed
					var addr, want uint64
					for a, v := range acked[g] {
						addr, want = a, v
						break
					}
					tl.attemptedReads++
					data, err := readCtx(ctx, e, addr)
					switch {
					case err == nil:
						tl.okReads++
						if !bytes.Equal(data, testLine(want)) {
							errc <- fmt.Errorf("g%d: acknowledged write at %#x lost or torn", g, addr)
							return
						}
					case errors.Is(err, core.ErrOverloaded):
						tl.shedReads++
					case errors.Is(err, ErrFaultInjected):
						tl.faultReads++
					default:
						errc <- fmt.Errorf("g%d read %#x: unexpected %v", g, addr, err)
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

	var total chaosTally
	for i := range tallies {
		total.add(tallies[i])
	}
	snap := e.StatsSnapshot()

	// The suite is vacuous if the fault plan never fired; the seeded plan
	// at p=0.05 over ~1600 ops makes both taxonomies deterministic enough
	// to demand activity.
	if total.faultReads+total.faultWrites == 0 {
		t.Fatal("fault injection never fired — chaos suite is not exercising anything")
	}

	// Engine-side counters vs caller-side ledger: exact conservation.
	if snap.Total.Reads != total.okReads {
		t.Fatalf("engine Reads = %d, callers saw %d successful reads", snap.Total.Reads, total.okReads)
	}
	if snap.Total.Writes != total.okWrites {
		t.Fatalf("engine Writes = %d, callers saw %d acknowledged writes", snap.Total.Writes, total.okWrites)
	}
	if snap.Total.Mispredictions > snap.Total.Reads {
		t.Fatalf("mispredictions %d exceed reads %d", snap.Total.Mispredictions, snap.Total.Reads)
	}
	if got, want := snap.Robust.Sheds, total.shedReads+total.shedWrites; got != want {
		t.Fatalf("engine Sheds = %d, callers saw %d", got, want)
	}
	if got, want := snap.Robust.InjectedErrors, total.faultReads+total.faultWrites; got != want {
		t.Fatalf("engine InjectedErrors = %d, callers saw %d", got, want)
	}
	// The read identity from the doc comment, both sides fully expanded.
	hits := snap.Total.Reads - snap.Total.Mispredictions
	if total.attemptedReads != hits+snap.Total.Mispredictions+total.shedReads+total.faultReads {
		t.Fatalf("read conservation broken: attempted %d != hits %d + mispred %d + sheds %d + faults %d",
			total.attemptedReads, hits, snap.Total.Mispredictions, total.shedReads, total.faultReads)
	}

	// No acknowledged write may be lost: read everything back, retrying
	// through the still-active fault plan.
	readRetry := func(addr uint64) ([]byte, error) {
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			var data []byte
			data, err = readCtx(ctx, e, addr)
			if err == nil {
				return data, nil
			}
			if !errors.Is(err, ErrFaultInjected) && !errors.Is(err, core.ErrOverloaded) {
				return nil, err
			}
		}
		return nil, err
	}
	for g := range acked {
		for addr, version := range acked[g] {
			data, err := readRetry(addr)
			if err != nil {
				t.Fatalf("acknowledged write at %#x unreadable: %v", addr, err)
			}
			if !bytes.Equal(data, testLine(version)) {
				t.Fatalf("acknowledged write at %#x lost: stored bytes differ", addr)
			}
		}
	}
}

// TestFaultInjectionDeterministic pins reproducibility: two engines with
// the same fault plan fed the same sequential op stream fail and delay
// the same ops.
func TestFaultInjectionDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 9, ErrP: 0.2, PartialP: 0.1}
	run := func() []bool {
		e, err := New(core.DefaultOptions(), Config{Shards: 2, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var outcomes []bool
		for i := uint64(0); i < 200; i++ {
			err := e.Write(i, testLine(i))
			if err != nil && !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("op %d: %v", i, err)
			}
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault injection not reproducible: op %d diverges across identical runs", i)
		}
	}
}

// TestFaultPartialBatch checks the partial-batch failure mode: a task is
// cut at one point — a prefix executes, the suffix fails with
// ErrFaultInjected, and nothing interleaves.
func TestFaultPartialBatch(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{
		Shards: 1,
		Faults: FaultPlan{Seed: 5, PartialP: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = Op{Write: true, Addr: uint64(i), Data: testLine(uint64(i))}
	}
	res, err := e.Do(ops)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(res)
	for i, r := range res {
		if r.Err != nil {
			cut = i
			break
		}
	}
	if cut == len(res) {
		t.Fatal("PartialP=1 task was never cut")
	}
	for i, r := range res {
		if i < cut && r.Err != nil {
			t.Fatalf("op %d before cut %d failed: %v", i, cut, r.Err)
		}
		if i >= cut && !errors.Is(r.Err, ErrFaultInjected) {
			t.Fatalf("op %d after cut %d err = %v, want ErrFaultInjected", i, cut, r.Err)
		}
	}
	if got := e.StatsSnapshot().Robust.InjectedErrors; got != uint64(len(res)-cut) {
		t.Fatalf("InjectedErrors = %d, want %d", got, len(res)-cut)
	}
}
