package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"attache/internal/core"
)

// readCtx and writeCtx submit a one-op DoCtx batch and unwrap its result.
func readCtx(ctx context.Context, e *Engine, addr uint64) ([]byte, error) {
	res, err := e.DoCtx(ctx, []Op{{Addr: addr}})
	if err != nil {
		return nil, err
	}
	return res[0].Data, res[0].Err
}

func writeCtx(ctx context.Context, e *Engine, addr uint64, data []byte) error {
	res, err := e.DoCtx(ctx, []Op{{Write: true, Addr: addr, Data: data}})
	if err != nil {
		return err
	}
	return res[0].Err
}

// TestDoCtxExpiredBeforeSubmit is the deadline-propagation table: a
// context that is already dead must return immediately from DoCtx (and
// the Read/Write wrappers) without enqueueing anything — no stats
// movement, no robust-counter movement.
func TestDoCtxExpiredBeforeSubmit(t *testing.T) {
	e := newTestEngine(t, 2, Config{})
	if err := e.Write(1, testLine(1)); err != nil {
		t.Fatal(err)
	}
	before := e.StatsSnapshot()

	expired, cancelE := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancelE()
	cancelled, cancelC := context.WithCancel(context.Background())
	cancelC()

	cases := []struct {
		name    string
		ctx     context.Context
		wantErr error
	}{
		{"expired deadline", expired, context.DeadlineExceeded},
		{"cancelled", cancelled, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.DoCtx(tc.ctx, []Op{{Addr: 1}}); !errors.Is(err, tc.wantErr) {
				t.Fatalf("DoCtx err = %v, want %v", err, tc.wantErr)
			}
			if res, err := e.DoCtx(tc.ctx, []Op{{Write: true, Addr: 2, Data: testLine(2)}}); !errors.Is(err, tc.wantErr) || res != nil {
				t.Fatalf("DoCtx write = %v, %v, want nil, %v", res, err, tc.wantErr)
			}
		})
	}

	after := e.StatsSnapshot()
	if after.Total != before.Total {
		t.Fatalf("dead-context submissions moved the counters:\n before %+v\n after  %+v", before.Total, after.Total)
	}
	if after.Robust != (RobustStats{}) {
		t.Fatalf("dead-context submissions touched robust counters: %+v", after.Robust)
	}
}

// TestDoCtxMatchesDoWhenHealthy pins that a live context changes nothing
// about results: DoCtx with headroom behaves exactly like Do.
func TestDoCtxMatchesDoWhenHealthy(t *testing.T) {
	e := newTestEngine(t, 4, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for a := uint64(0); a < 128; a++ {
		if err := writeCtx(ctx, e, a, testLine(a)); err != nil {
			t.Fatalf("write %d: %v", a, err)
		}
	}
	res, err := e.DoCtx(ctx, []Op{{Addr: 3}, {Addr: 99}, {Write: true, Addr: 1000, Data: testLine(9)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	got, err := readCtx(ctx, e, 1000)
	if err != nil || string(got) != string(testLine(9)) {
		t.Fatalf("read round trip: %v", err)
	}
}

// TestMidQueueCancellationFreesSlot enqueues a task behind a slow op,
// cancels it while it waits, and verifies its submitter skips it without
// executing: the op reports context.Canceled (not ErrNeverWritten, which
// is what executing it would produce), the canceled counter moves, and
// the shard keeps serving afterwards.
func TestMidQueueCancellationFreesSlot(t *testing.T) {
	e := newTestEngine(t, 1, Config{
		QueueDepth: 4,
		Faults:     FaultPlan{Seed: 7, DelayP: 1, Delay: 100 * time.Millisecond},
	})

	// Occupy the shard: every op sleeps 100ms under the fault plan.
	blocker := make(chan struct{})
	go func() {
		defer close(blocker)
		e.Do([]Op{{Write: true, Addr: 1, Data: testLine(1)}})
	}()
	time.Sleep(20 * time.Millisecond) // let the blocker take the shard

	ctx, cancel := context.WithCancel(context.Background())
	resc := make(chan []Result, 1)
	go func() {
		res, err := e.DoCtx(ctx, []Op{{Addr: 9999}}) // never-written addr: executing it would say so
		if err != nil {
			t.Errorf("DoCtx whole-call err = %v, want per-op error", err)
		}
		resc <- res
	}()
	time.Sleep(20 * time.Millisecond) // let it enqueue behind the blocker
	cancel()

	select {
	case res := <-resc:
		if !errors.Is(res[0].Err, context.Canceled) {
			t.Fatalf("mid-queue op err = %v, want context.Canceled", res[0].Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled task never resolved")
	}
	<-blocker

	if got := e.StatsSnapshot().Robust.Canceled; got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
	// The slot is free and the shard still serves.
	if err := e.Write(2, testLine(2)); err != nil {
		t.Fatalf("write after cancellation: %v", err)
	}
	if _, err := e.Read(9999); !errors.Is(err, core.ErrNeverWritten) {
		t.Fatal("cancelled read must not have executed")
	}
}

// TestDoCtxShedsOnFullQueue drives a 1-deep queue into saturation and
// checks the admission-control contract: DoCtx fails fast with
// core.ErrOverloaded, counts the shed, and never blocks; plain Do on the
// same engine still applies backpressure and completes.
func TestDoCtxShedsOnFullQueue(t *testing.T) {
	e := newTestEngine(t, 1, Config{
		QueueDepth: 1,
		Faults:     FaultPlan{Seed: 3, DelayP: 1, Delay: 80 * time.Millisecond},
	})

	// One op executing (its submitter sleeps), one submitter waiting.
	first := make(chan struct{})
	go func() { defer close(first); e.Do([]Op{{Write: true, Addr: 1, Data: testLine(1)}}) }()
	time.Sleep(20 * time.Millisecond)
	second := make(chan struct{})
	go func() { defer close(second); e.Do([]Op{{Write: true, Addr: 2, Data: testLine(2)}}) }()
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	res, err := e.DoCtx(context.Background(), []Op{{Addr: 1}, {Addr: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 50*time.Millisecond {
		t.Fatalf("shed admission took %v, must not block", waited)
	}
	for i, r := range res {
		if !errors.Is(r.Err, core.ErrOverloaded) {
			t.Fatalf("op %d err = %v, want ErrOverloaded", i, r.Err)
		}
	}
	if got := e.StatsSnapshot().Robust.Sheds; got != 2 {
		t.Fatalf("sheds = %d, want 2", got)
	}

	<-first
	<-second
	// Once the waiters are through, DoCtx gets in again.
	if _, err := readCtx(context.Background(), e, 1); err != nil {
		t.Fatalf("read after drain: %v", err)
	}
}

// TestCancelBetweenTasksSkipsTheLater pins the context re-check between
// one submission's shards: both are free, the first task runs under a
// 100 ms injected delay while ctx is cancelled, and the second — which
// never waits — must still be skipped with context.Canceled instead of
// executing (a read of a never-written line would say ErrNeverWritten).
func TestCancelBetweenTasksSkipsTheLater(t *testing.T) {
	e := newTestEngine(t, 2, Config{
		Faults: FaultPlan{Seed: 5, DelayP: 1, Delay: 100 * time.Millisecond},
	})
	var first, second uint64
	for a := uint64(1000); e.shardFor(first) != 0 || e.shardFor(second) != 1; a++ {
		if e.shardFor(a) == 0 {
			first = a
		} else {
			second = a
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	res, err := e.DoCtx(ctx, []Op{{Write: true, Addr: first, Data: testLine(1)}, {Addr: second}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("first task err = %v, want it to complete", res[0].Err)
	}
	if !errors.Is(res[1].Err, context.Canceled) {
		t.Fatalf("second task err = %v, want context.Canceled", res[1].Err)
	}
	if got := e.StatsSnapshot().Robust.Canceled; got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}
