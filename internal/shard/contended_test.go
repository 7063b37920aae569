package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"attache/internal/core"
)

// contendedTally counts, per outcome, the ops one run's callers were
// answered: the caller-side ledger the final snapshot must agree with.
type contendedTally struct {
	offered, executed, never, shed, canceled, injected uint64
}

// TestContendedAnswersToModel is the reference model's slice at the
// shard layer, on the busy-shard path: 8 goroutines over 1, 2 and 3
// shards at QueueDepth 2, each owning a disjoint address stripe and
// keeping a map of its own acknowledged writes, mix Do and DoCtx (µs
// deadlines) under a seeded fault plan whose delays hold the shard locks
// long enough that submitters wait, shed and expire; meanwhile another
// goroutine loops StatsSnapshot and WriteSnapshot, and Close fires
// mid-run. Then:
//
//   - every read that succeeded returned its stripe's last acknowledged
//     write, and every read of a line the model does not hold said
//     ErrNeverWritten — so no failed write landed and no acked one was
//     lost, before Close and in an engine restored from the post-Close
//     snapshot;
//   - every error, per op or per call, is a row of OpErrors;
//   - executed + never-written + shed + canceled + injected = offered,
//     each term read from the final (post-Close) snapshot and equal to
//     what the callers were told;
//   - in the DoCtx-only runs the QueueDepth gauge never passes QueueDepth.
//
// Mutation it catches: drop the ctx check after Lock in worker.execute
// (a task whose context died while it waited then runs) and no op is
// ever canceled — the "never canceled" vacuity check at the end fails.
func TestContendedAnswersToModel(t *testing.T) {
	var all contendedTally
	for _, shards := range []int{1, 2, 3} {
		for _, ctxOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards%d/ctxOnly=%v", shards, ctxOnly), func(t *testing.T) {
				got := runContended(t, shards, ctxOnly)
				all.shed += got.shed
				all.canceled += got.canceled
				all.injected += got.injected
			})
		}
	}
	if all.shed == 0 || all.canceled == 0 || all.injected == 0 {
		t.Fatalf("a path was never taken: %d shed, %d canceled, %d injected — the test exercised nothing there", all.shed, all.canceled, all.injected)
	}
}

func runContended(t *testing.T, shards int, ctxOnly bool) contendedTally {
	const (
		goroutines  = 8
		depth       = 2
		stripe      = 32    // addresses per goroutine
		closeAfter  = 2000  // executed ops before Close fires
		maxPerGorou = 20000 // safety cap; Close ends the run long before
	)
	e, err := New(core.DefaultOptions(), Config{
		Shards:     shards,
		QueueDepth: depth,
		Faults:     FaultPlan{Seed: int64(shards), ErrP: 0.05, PartialP: 0.05, DelayP: 0.05, Delay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	knownErr := func(err error) bool {
		for _, row := range OpErrors {
			if errors.Is(err, row.Sentinel) {
				return true
			}
		}
		return false
	}

	var executed atomic.Int64
	models := make([]map[uint64][core.LineSize]byte, goroutines)
	tallies := make([]contendedTally, goroutines)
	errc := make(chan error, 2*goroutines+1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		models[g] = make(map[uint64][core.LineSize]byte)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*977 + int64(shards)))
			model, tl := models[g], &tallies[g]
			for iter := 0; iter < maxPerGorou; iter++ {
				ops := make([]Op, 1+rng.Intn(6))
				for i := range ops {
					ops[i].Addr = uint64(g)<<16 | uint64(rng.Intn(stripe))
					if ops[i].Write = rng.Intn(2) == 0; ops[i].Write {
						ops[i].Data = testLine(rng.Uint64())
					}
				}
				var res []Result
				var err error
				if ctxOnly || rng.Intn(2) == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(10+rng.Intn(140))*time.Microsecond)
					res, err = e.DoCtx(ctx, ops)
					cancel()
				} else {
					res, err = e.Do(ops)
				}
				for _, sg := range e.Gauges() {
					if !ctxOnly {
						break // a Do waits regardless, so the gauge has no bound
					}
					if sg.QueueDepth > depth {
						errc <- fmt.Errorf("shard %d: QueueDepth gauge %d passed the bound %d on a DoCtx-only run", sg.Shard, sg.QueueDepth, depth)
						return
					}
				}
				if err != nil {
					if !knownErr(err) {
						errc <- fmt.Errorf("g%d: whole-call error %v is no row of OpErrors", g, err)
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					continue // expired before submit: nothing was offered
				}
				before := tl.executed
				for i, r := range res {
					op := ops[i]
					want, held := model[op.Addr]
					tl.offered++
					switch {
					case r.Err == nil && op.Write:
						tl.executed++
						model[op.Addr] = [core.LineSize]byte(op.Data)
					case r.Err == nil:
						tl.executed++
						if !held || !bytes.Equal(r.Data, want[:]) {
							errc <- fmt.Errorf("g%d: read %#x returned something other than its last acked write (model holds it: %v)", g, op.Addr, held)
							return
						}
					case errors.Is(r.Err, core.ErrNeverWritten):
						tl.never++
						if held || op.Write {
							errc <- fmt.Errorf("g%d: op at %#x (write=%v) said never written; the model holds an acked write: %v", g, op.Addr, op.Write, held)
							return
						}
					case errors.Is(r.Err, core.ErrOverloaded):
						tl.shed++
					case errors.Is(r.Err, context.DeadlineExceeded), errors.Is(r.Err, context.Canceled):
						tl.canceled++
					case errors.Is(r.Err, ErrFaultInjected):
						tl.injected++
					default:
						errc <- fmt.Errorf("g%d: op error %v (known to OpErrors: %v) cannot come from this run", g, r.Err, knownErr(r.Err))
						return
					}
				}
				executed.Add(int64(tl.executed - before))
				if tl.executed == before {
					time.Sleep(50 * time.Microsecond) // all refused: back off as a client would
				}
			}
			errc <- fmt.Errorf("g%d: ran %d submissions and never saw ErrClosed", g, maxPerGorou)
		}(g)
	}

	// The observer: stats and snapshots against live traffic and across
	// Close, pausing so that it is one contender and not the only holder.
	stop := make(chan struct{})
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.StatsSnapshot()
			if err := e.WriteSnapshot(io.Discard); err != nil {
				errc <- fmt.Errorf("WriteSnapshot under load: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for executed.Load() < closeAfter {
		time.Sleep(100 * time.Microsecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	<-observed
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	var total contendedTally
	for _, tl := range tallies {
		total.offered += tl.offered
		total.executed += tl.executed
		total.never += tl.never
		total.shed += tl.shed
		total.canceled += tl.canceled
		total.injected += tl.injected
	}
	t.Logf("%+v", total)
	snap := e.StatsSnapshot()
	for _, g := range e.Gauges() {
		if g.InFlight != 0 {
			t.Fatalf("shard %d: InFlight gauge = %d after Close", g.Shard, g.InFlight)
		}
	}
	for _, c := range []struct {
		name        string
		engine, saw uint64
	}{
		{"executed", snap.Total.Reads + snap.Total.Writes, total.executed},
		{"shed", snap.Robust.Sheds, total.shed},
		{"canceled", snap.Robust.Canceled, total.canceled},
		{"injected", snap.Robust.InjectedErrors, total.injected},
	} {
		if c.engine != c.saw {
			t.Errorf("%s: final snapshot says %d, callers were told %d", c.name, c.engine, c.saw)
		}
	}
	if sum := snap.Total.Reads + snap.Total.Writes + total.never + snap.Robust.Sheds + snap.Robust.Canceled + snap.Robust.InjectedErrors; sum != total.offered {
		t.Fatalf("conservation broken: executed %d + never written %d + shed %d + canceled %d + injected %d = %d, offered %d",
			snap.Total.Reads+snap.Total.Writes, total.never, snap.Robust.Sheds, snap.Robust.Canceled, snap.Robust.InjectedErrors, sum, total.offered)
	}

	// The post-Close snapshot holds exactly the model.
	var image bytes.Buffer
	if err := e.WriteSnapshot(&image); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngineFrom(&image, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for g, model := range models {
		for i := uint64(0); i < stripe; i++ {
			addr := uint64(g)<<16 | i
			data, err := restored.Read(addr)
			if want, held := model[addr]; held && (err != nil || !bytes.Equal(data, want[:])) {
				t.Fatalf("restored engine: acked write at %#x lost (%v)", addr, err)
			} else if !held && !errors.Is(err, core.ErrNeverWritten) {
				t.Fatalf("restored engine: %#x holds a write nobody was acked (%v)", addr, err)
			}
		}
	}
	return total
}
