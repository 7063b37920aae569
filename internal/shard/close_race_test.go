package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"attache/internal/core"
)

// TestCloseInterruptsInFlightDo pins the Close-vs-Do race: callers
// waiting for a busy shard when Close fires must come back — with
// completed results if they were past the closed check, ErrClosed if not
// — instead of hanging, and Close must return once those in flight have
// run. Run under -race in CI, this also proves mu orders the two cleanly.
func TestCloseInterruptsInFlightDo(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{
		Shards:     1,
		QueueDepth: 1,
		// Slow every op down so the shard stays busy and submitters wait.
		Faults: FaultPlan{Seed: 11, DelayP: 1, Delay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res, err := e.Do([]Op{{Write: true, Addr: uint64(g*1000 + i), Data: testLine(uint64(i))}})
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errc <- fmt.Errorf("g%d Do err = %v, want ErrClosed", g, err)
					}
					return
				}
				for _, r := range res {
					if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
						errc <- fmt.Errorf("g%d op err = %v, want nil or ErrClosed", g, r.Err)
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(40 * time.Millisecond) // let the submitters pile up on the lock
	closed := make(chan struct{})
	go func() { defer close(closed); e.Close() }()

	doneAll := make(chan struct{})
	go func() { defer close(doneAll); wg.Wait() }()
	for name, ch := range map[string]chan struct{}{"Close": closed, "submitters": doneAll} {
		select {
		case <-ch:
		case <-time.After(15 * time.Second):
			t.Fatalf("%s hung after Close during in-flight Do", name)
		}
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The engine is fully closed: every surface rejects, including ctx ops.
	if _, err := e.Do([]Op{{Addr: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after close err = %v, want ErrClosed", err)
	}
	if _, err := e.DoCtx(context.Background(), []Op{{Addr: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("DoCtx after close err = %v, want ErrClosed", err)
	}
}
