package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/serve"
	"attache/internal/shard"
	"attache/internal/tier"
)

// The serving ladder of the traced pass: the same first events of the
// ring replayed, by one client, against each layer's public entry point
// from identical prefilled state — 1 shard, 1 instance, where the repo's
// bit-identity contracts (1-shard engine == Memory, passthrough cluster
// == engine) make every rung do the same memory work. A layer's cost is
// its rung minus the rung below.

const (
	// ladderMaxEvents and ladderMaxOps size the replayed slice so that
	// the slowest rung (live HTTP) takes a couple of seconds.
	ladderMaxEvents = 8000
	ladderMaxOps    = 128 << 10
)

// ladderSlice is the prefix of the ring the rungs replay.
func ladderSlice(r *ring) []loadgen.Event {
	ops := 0
	for i, ev := range r.events {
		if i == ladderMaxEvents || ops+len(ev.Ops) > ladderMaxOps {
			return r.events[:max(i, 1)]
		}
		ops += len(ev.Ops)
	}
	return r.events
}

// exactModel is the traced pass's read-back check: with one client the
// memory is sequentially consistent, so every read must return exactly
// the bytes of the last write to its address.
type exactModel struct {
	prefilled [][]byte // the line prefill wrote at each address
	lines     [][]byte // the line last written at each address
	reads     uint64   // reads compared, over all rungs
}

func newExactModel(r *ring) *exactModel {
	m := &exactModel{prefilled: make([][]byte, r.space), lines: make([][]byte, r.space)}
	for a := range m.prefilled {
		m.prefilled[a] = r.fill(uint64(a))
	}
	return m
}

// reset returns the model to the prefilled state. It allocates nothing,
// and neither does check: the rungs count allocations around both.
func (m *exactModel) reset() { copy(m.lines, m.prefilled) }

func (m *exactModel) check(ops []shard.Op, res []shard.Result) error {
	if len(res) != len(ops) {
		return fmt.Errorf("%d results for %d ops", len(res), len(ops))
	}
	for i, op := range ops {
		switch {
		case res[i].Err != nil:
			return fmt.Errorf("op at %d: %w", op.Addr, res[i].Err)
		case op.Write:
			m.lines[op.Addr] = op.Data
		default:
			m.reads++
			if want := m.lines[op.Addr]; !bytes.Equal(res[i].Data, want) {
				return fmt.Errorf("read of %d: got %x, last write was %x", op.Addr, res[i].Data, want)
			}
		}
	}
	return nil
}

// rung is what one pass over the slice cost at one entry point.
type rung struct {
	name    string
	wall    time.Duration // the calls only; the read-back check is outside
	mallocs uint64
	ops     int
	// blocks are the modeled memory counters after prefill and replay:
	// what every rung on the same backend must agree on.
	blocks blockCounters
}

type blockCounters struct{ blocksRead, blocksWritten, mispredictions uint64 }

func countersOf(s core.StatsSnapshot) blockCounters {
	return blockCounters{s.BlocksRead, s.BlocksWritten, s.Mispredictions}
}

// replay prefills through target, then times the slice through it.
// before, when non-nil, runs ahead of each event (the live rung opens
// its bench.event span there) and after once its check is done.
func replay(ctx context.Context, name string, target loadgen.Target, r *ring, evs []loadgen.Event, model *exactModel,
	before func(k int), after func()) (rung, error) {
	out := rung{name: name}
	if err := prefill(ctx, target, r); err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}
	model.reset()
	m0 := mallocs()
	for k, ev := range evs {
		if before != nil {
			before(k)
		}
		t0 := time.Now()
		res, err := target.DoCtx(ctx, ev.Ops)
		out.wall += time.Since(t0)
		if err == nil {
			err = model.check(ev.Ops, res)
		}
		if after != nil {
			after()
		}
		if err != nil {
			return out, fmt.Errorf("%s: event %d: %w", name, k, err)
		}
		out.ops += len(ev.Ops)
	}
	out.mallocs = mallocs() - m0
	return out, nil
}

// backend is the bottom of the ladder: core.Memory, or tier.Memory
// in front of one.
type backend interface {
	Read(lineAddr uint64) ([]byte, error)
	Write(lineAddr uint64, data []byte) error
}

// backendTarget applies ops one by one to a backend.
type backendTarget struct{ b backend }

func (t backendTarget) DoCtx(_ context.Context, ops []shard.Op) ([]shard.Result, error) {
	res := make([]shard.Result, len(ops))
	for i, op := range ops {
		if op.Write {
			res[i].Err = t.b.Write(op.Addr, op.Data)
		} else {
			res[i].Data, res[i].Err = t.b.Read(op.Addr)
		}
	}
	return res, nil
}

// ladder holds the rungs of one traced pass and what they measured
// besides time.
type ladder struct {
	r     *ring
	evs   []loadgen.Event
	model *exactModel
	tier  *tier.Config // the workload's own; nil = untiered

	core, tiered, shard, cluster, serve, live, liveUntraced rung

	coreStats  core.StatsSnapshot // the core rung's Memory after the replay
	coreRun    core.StatsSnapshot // its traffic during the replay alone
	coreHeap   uint64             // live bytes the filled core.Memory holds
	rereads    usage              // a second pass over the slice's reads alone, on the core rung
	rereadN    int
	tierRun    tier.Snapshot      // the tier rung's traffic during the replay alone
	tierFarRun core.StatsSnapshot // and the far core.Memory traffic that caused
	robust     shard.RobustStats
	shedQuota  int64
	snapEncode time.Duration
	snapDecode time.Duration
	snapBytes  int
	snapLines  uint64
	tr         *tracer
	transport  *spanTransport
	middleware *spanMiddleware
}

// inProcessRepeats is how often an in-process rung runs, each time from
// fresh state; the fastest counts. These rungs take a fraction of a
// second and their times are subtracted from each other, so a hiccup in
// one shows as a negative layer.
const inProcessRepeats = 5

func fastest(run func() (rung, error)) (rung, error) {
	var best rung
	for i := 0; i < inProcessRepeats; i++ {
		r, err := run()
		if err != nil {
			return r, err
		}
		if i == 0 || r.wall < best.wall {
			best = r
		}
	}
	return best, nil
}

// replay runs the slice through t; prefilled, when non-nil, runs between
// prefill and the first event, where a rung reads the counters that its
// per-op figures must not include.
func (l *ladder) replay(ctx context.Context, name string, t loadgen.Target, prefilled func()) (rung, error) {
	return replay(ctx, name, t, l.r, l.evs, l.model, func(k int) {
		if k == 0 && prefilled != nil {
			prefilled()
		}
	}, nil)
}

func (l *ladder) runCore(ctx context.Context) error {
	var mem *core.Memory
	var err error
	l.core, err = fastest(func() (rung, error) {
		mem = nil
		heap0 := liveHeap()
		if mem, err = core.NewMemory(engineOptions()); err != nil {
			return rung{}, err
		}
		var filled core.StatsSnapshot
		r, err := l.replay(ctx, "core", backendTarget{mem}, func() { filled = mem.StatsSnapshot() })
		l.coreHeap = liveHeap() - heap0
		l.coreStats = mem.StatsSnapshot()
		l.coreRun = statsSince(filled, l.coreStats)
		r.blocks = countersOf(l.coreStats)
		return r, err
	})
	if err != nil {
		return err
	}

	// Reads alone, for their time and allocation count: state is as the
	// replay left it, and reads change no line.
	mark := markUsage()
	for _, ev := range l.evs {
		for _, op := range ev.Ops {
			if op.Write {
				continue
			}
			if _, err := mem.Read(op.Addr); err != nil {
				return fmt.Errorf("core: re-read of %d: %w", op.Addr, err)
			}
			l.rereadN++
		}
	}
	l.rereads = mark.since()
	return nil
}

// runTier runs the slice through tier.Memory, whatever the workload:
// every traced pass reports the tier's cost. An untiered workload gets
// the ladder's own near-tier size.
func (l *ladder) runTier(ctx context.Context) error {
	cfg := tier.Config{NearLines: ladderNearLines, Policy: tier.PolicyLRU}
	if l.tier != nil {
		cfg = *l.tier
	}
	var err error
	l.tiered, err = fastest(func() (rung, error) {
		far, err := core.NewMemory(engineOptions())
		if err != nil {
			return rung{}, err
		}
		tm, err := tier.NewMemory(cfg, far)
		if err != nil {
			return rung{}, err
		}
		var filled tier.Snapshot
		var farFilled core.StatsSnapshot
		r, err := l.replay(ctx, "tier", backendTarget{tm}, func() { filled, farFilled = tm.Snapshot(), far.StatsSnapshot() })
		l.tierRun = tm.Snapshot()
		l.tierRun.NearReads -= filled.NearReads
		l.tierRun.NearWrites -= filled.NearWrites
		l.tierRun.FarReads -= filled.FarReads
		l.tierRun.FarWrites -= filled.FarWrites
		l.tierRun.Promotions -= filled.Promotions
		l.tierRun.Demotions -= filled.Demotions
		l.tierRun.FarLinkBytes -= filled.FarLinkBytes
		r.blocks = countersOf(far.StatsSnapshot())
		l.tierFarRun = statsSince(farFilled, far.StatsSnapshot())
		return r, err
	})
	return err
}

func (l *ladder) newEngine() (*shard.Engine, error) {
	return shard.New(engineOptions(), engineConfig(1, l.tier))
}

func (l *ladder) runShard(ctx context.Context) error {
	var err error
	l.shard, err = fastest(func() (rung, error) {
		eng, err := l.newEngine()
		if err != nil {
			return rung{}, err
		}
		defer eng.Close()
		r, err := l.replay(ctx, "shard", eng, nil)
		if err != nil {
			return r, err
		}
		snap := eng.StatsSnapshot()
		r.blocks, l.robust = countersOf(snap.Total), snap.Robust

		// The snap codec, on the state the replay left.
		enc, dec, n, restored, err := snapRoundTrip(eng)
		if err != nil {
			return r, err
		}
		defer restored.Close()
		l.snapEncode, l.snapDecode, l.snapBytes, l.snapLines = enc, dec, n, snap.Total.Lines
		if snap.Tiers != nil {
			l.snapLines += snap.Tiers.NearResident
		}
		if got := countersOf(restored.StatsSnapshot().Total); got != r.blocks {
			return r, fmt.Errorf("snap: restored engine counts %+v, the original %+v", got, r.blocks)
		}
		return r, nil
	})
	return err
}

func (l *ladder) runCluster(ctx context.Context) error {
	var err error
	l.cluster, err = fastest(func() (rung, error) {
		eng, err := l.newEngine()
		if err != nil {
			return rung{}, err
		}
		cl, err := cluster.Wrap([]*shard.Engine{eng}, cluster.Config{})
		if err != nil {
			eng.Close()
			return rung{}, err
		}
		defer cl.Close()
		r, err := l.replay(ctx, "cluster", cl, nil)
		r.blocks = countersOf(cl.EngineSnapshot().Total)
		l.shedQuota = 0
		for _, t := range cl.TenantSnapshots() {
			l.shedQuota += t.ShedQuota
		}
		return r, err
	})
	return err
}

// runServe replays the HTTP requests the live rung's client made
// straight into the daemon's handler, without a socket, and checks only
// the status: the bytes were checked live. It needs the live rung's
// capture, so it runs after it.
func (l *ladder) runServe(ctx context.Context) error {
	eng, err := l.newEngine()
	if err != nil {
		return err
	}
	defer eng.Close()
	h := serve.New(eng, serve.Config{}).Handler()
	if err := prefill(ctx, eng, l.r); err != nil {
		return err
	}
	out := rung{name: "serve"}
	requests := l.transport.requests
	mark := markUsage()
	for k, n := range l.requestsPerEvent() {
		for ; n > 0; n-- {
			c := requests[0]
			requests = requests[1:]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("serve: event %d: %s %s answered %d: %s", k, c.method, c.path, rec.Code, rec.Body)
			}
		}
		out.ops += len(l.evs[k].Ops)
	}
	used := mark.since()
	out.wall, out.mallocs = used.wall, used.mallocs
	out.blocks = countersOf(eng.StatsSnapshot().Total)
	l.serve = out
	return nil
}

// requestsPerEvent counts, from the spans, the round trips each event of
// the slice made live (more than one only if the client retried).
func (l *ladder) requestsPerEvent() []int {
	n := make([]int, len(l.evs))
	for _, s := range l.tr.spans {
		if s.Name == spanRoundTrip {
			n[s.Event]++
		}
	}
	return n
}

// runLive drives the whole stack over loopback HTTP. traced puts spans
// at every boundary above the handler and captures the requests; the
// untraced twin of the same single-client pass prices the tracing.
func (l *ladder) runLive(ctx context.Context, w *servingWorkload, traced bool) error {
	eng, err := l.newEngine()
	if err != nil {
		return err
	}
	st := &stack{ring: l.r, eng: eng}
	if !traced {
		if err := st.serveOverLoopback(1, w.singleOps, nil, nil); err != nil {
			eng.Close()
			return err
		}
		defer st.close()
		l.liveUntraced, err = l.replay(ctx, "live-untraced", st.targets[0], nil)
		return err
	}

	l.tr = newTracer()
	l.middleware = &spanMiddleware{tr: l.tr}
	err = st.serveOverLoopback(1, w.singleOps, l.middleware.wrap, func(rt http.RoundTripper) http.RoundTripper {
		l.transport = &spanTransport{inner: rt, tr: l.tr}
		return l.transport
	})
	if err != nil {
		eng.Close()
		return err
	}
	defer st.close()
	// No event is open during prefill, so it leaves no spans.
	tt := &tracedTarget{inner: st.targets[0], tr: l.tr, parent: -1}
	l.live, err = replay(ctx, "live", tt, l.r, l.evs, l.model,
		func(k int) { tt.parent = l.tr.begin(spanEvent, -1, k) },
		func() { l.tr.end(tt.parent) })
	if err != nil {
		return err
	}
	l.live.blocks = countersOf(eng.StatsSnapshot().Total)
	return nil
}

// checkEqualBlocks asserts the ladder's premise: every rung on the same
// backend did the same modeled memory work.
func (l *ladder) checkEqualBlocks() error {
	base := l.core
	if l.tier != nil {
		base = l.tiered
	}
	for _, r := range []rung{l.shard, l.cluster, l.serve, l.live} {
		if r.blocks != base.blocks {
			return fmt.Errorf("ladder: rung %s counts %+v, rung %s %+v; the rungs did different memory work and do not subtract",
				r.name, r.blocks, base.name, base.blocks)
		}
	}
	return nil
}

// snapRoundTrip serializes eng and restores a new engine from the bytes.
func snapRoundTrip(eng *shard.Engine) (encode, decode time.Duration, size int, restored *shard.Engine, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := eng.WriteSnapshot(&buf); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	encode, size = time.Since(t0), buf.Len()
	t0 = time.Now()
	if restored, err = shard.RestoreEngineFrom(&buf, shard.Config{}); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("restore: %w", err)
	}
	return encode, time.Since(t0), size, restored, nil
}

// listenLoopback serves h on a fresh loopback port.
func listenLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when the caller shuts hs down
	return hs, ln.Addr().String(), nil
}
