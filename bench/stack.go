package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"attache/client"
	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/serve"
	"attache/internal/shard"
	"attache/internal/tier"
)

// engineSeed keys the program under test (CID, scrambler). It is fixed:
// the workload seed shapes the inputs only and never reaches the program.
const engineSeed = 1

// prefillBatch is the ops per prefill submission.
const prefillBatch = 512

// warmShare of the ring is replayed once, untimed, before the run.
const warmShare = 0.05

// stack is a running program under test with one target per client.
type stack struct {
	ring    *ring
	eng     *shard.Engine
	targets []loadgen.Target
	stop    func() error
}

func (s *stack) close() error { return s.stop() }

func engineConfig(shards int, tc *tier.Config) shard.Config {
	return shard.Config{Shards: shards, Tier: tc}
}

func engineOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Seed = engineSeed
	return opts
}

// setUp generates the workload's inputs and brings the program to the
// state the timed run starts from: stack built, every address written
// through the target, caches warm. All of it is what setup_s times.
func setUp(ctx context.Context, w *servingWorkload, seed int64, clients int) (*stack, error) {
	r, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	eng, err := shard.New(engineOptions(), engineConfig(servingShards, w.tier))
	if err != nil {
		return nil, err
	}
	st := &stack{ring: r, eng: eng, stop: eng.Close}
	if w.wire {
		if err := st.serveOverLoopback(clients, w.singleOps, nil, nil); err != nil {
			eng.Close()
			return nil, err
		}
	} else {
		st.targets = repeatTarget(eng, clients)
	}
	if err := prefill(ctx, st.targets[0], r); err != nil {
		st.close()
		return nil, err
	}
	if w.snapRestore {
		if err := st.snapshotAndRestore(clients); err != nil {
			st.close()
			return nil, err
		}
	}
	warm := drive(ctx, driveConfig{ring: r, targets: st.targets, maxEvents: max(clients, int(warmShare*float64(len(r.events))))})
	if warm.failed() > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %w", warm.failed(), warm.attempted, warm.firstErr)
	}
	return st, nil
}

func repeatTarget(t loadgen.Target, n int) []loadgen.Target {
	out := make([]loadgen.Target, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// prefill writes every address of the ring's space through the target,
// so no read of the run can find a line missing.
func prefill(ctx context.Context, t loadgen.Target, r *ring) error {
	ops := make([]shard.Op, 0, prefillBatch)
	flush := func() error {
		res, err := t.DoCtx(ctx, ops)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for i := range res {
			if res[i].Err != nil {
				return fmt.Errorf("prefill line %d: %w", ops[i].Addr, res[i].Err)
			}
		}
		ops = ops[:0]
		return nil
	}
	for a := uint64(0); a < r.space; a++ {
		ops = append(ops, shard.Op{Write: true, Addr: a, Data: r.fill(a)})
		if len(ops) == prefillBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(ops) > 0 {
		return flush()
	}
	return nil
}

// snapshotAndRestore replaces the engine with one restored from its own
// snapshot, so the timed run (and its read-back check) runs on state
// that went through the snap codec.
func (s *stack) snapshotAndRestore(clients int) error {
	_, _, _, restored, err := snapRoundTrip(s.eng)
	if err != nil {
		return err
	}
	if err := s.eng.Close(); err != nil {
		restored.Close()
		return err
	}
	s.eng, s.stop, s.targets = restored, restored.Close, repeatTarget(restored, clients)
	return nil
}

// serveOverLoopback boots the daemon stack (serve -> 1-instance
// passthrough cluster -> s.eng) on a real loopback listener and makes
// one HTTP client per load client. wrapHandler and wrapTransport, when
// non-nil, let the traced pass put spans around the handler and the
// round trip; the untraced run passes nil and runs the daemon's own
// ListenAndServe.
func (s *stack) serveOverLoopback(clients int, singleOps bool, wrapHandler func(http.Handler) http.Handler, wrapTransport func(http.RoundTripper) http.RoundTripper) error {
	srv := serve.New(s.eng, serve.Config{Addr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var addr string
	if wrapHandler == nil {
		go func() { done <- srv.ListenAndServe(ctx) }()
		select {
		case <-srv.Ready():
			addr = srv.Addr()
		case err := <-done:
			cancel()
			return fmt.Errorf("listen: %w", err)
		}
	} else {
		hs, ln, err := listenLoopback(wrapHandler(srv.Handler()))
		if err != nil {
			cancel()
			return err
		}
		addr = ln
		go func() {
			<-ctx.Done()
			err := hs.Shutdown(context.Background())
			if cerr := s.eng.Close(); err == nil {
				err = cerr
			}
			done <- err
		}()
	}

	transport := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = transport
	if wrapTransport != nil {
		rt = wrapTransport(rt)
	}
	s.targets = make([]loadgen.Target, clients)
	for i := range s.targets {
		c := client.New("http://"+addr, client.WithHTTPClient(&http.Client{Transport: rt}))
		if singleOps {
			s.targets[i] = &singleOpTarget{c: c}
		} else {
			s.targets[i] = c
		}
	}
	s.stop = func() error {
		transport.CloseIdleConnections()
		cancel()
		if err := <-done; err != nil && !errors.Is(err, shard.ErrClosed) {
			return err
		}
		return nil
	}
	return nil
}

// singleOpTarget sends a one-op event the way a caller with one line to
// move would: POST /v1/read or /v1/write, not a one-element batch.
// One per client goroutine (it reuses its result slot).
type singleOpTarget struct {
	c   *client.Client
	res [1]shard.Result
}

func (t *singleOpTarget) DoCtx(ctx context.Context, ops []shard.Op) ([]shard.Result, error) {
	if len(ops) != 1 {
		return t.c.DoCtx(ctx, ops)
	}
	t.res[0] = shard.Result{}
	if ops[0].Write {
		t.res[0].Err = t.c.Write(ctx, ops[0].Addr, ops[0].Data)
	} else {
		t.res[0].Data, t.res[0].Err = t.c.Read(ctx, ops[0].Addr)
	}
	return t.res[:], nil
}
