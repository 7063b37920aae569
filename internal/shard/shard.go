// Package shard provides the concurrent entry point to the Attaché
// functional memory: an N-way address-sharded pool of core.Memory
// instances fed through a low-overhead submission pipeline.
//
// The design follows the shape CRAM and the CXL-pooling line of work give
// compressed memory — a shared pool behind a request interface:
//
//   - Sharding: a line address is mixed and reduced to a shard index, so
//     each 64-byte line lives in exactly one shard and round-trips are
//     exact regardless of shard count. Every shard holds an independent
//     framework (its own CID, scrambler key, and COPR predictor), exactly
//     as the paper's per-controller state would be replicated across
//     memory controllers.
//   - Inline fast path: when a shard is uncontended (its execution lock
//     is free and its ring is empty), the submitter applies that shard's
//     ops on its own goroutine — no handoff, no wakeup, no allocation.
//     This is the software analogue of the paper's thesis: the per-access
//     metadata cost (here, a channel send and a goroutine switch per op)
//     is elided entirely on the common path, not merely parallelized.
//   - Batched ring: when a shard is busy, tasks land in a mutex-guarded
//     power-of-two ring with a single coalescing wake signal; the shard
//     goroutine drains the whole backlog per wakeup, so one handoff
//     amortizes across every queued task.
//   - Stats: each shard mutates only its own Memory's counters. Snapshot
//     claims each shard's execution lock (or routes a marker through its
//     ring) so every shard publishes a coherent core.StatsSnapshot, then
//     merges them with Accumulate — aggregation by ownership rather than
//     by atomics.
//
// core.Memory itself is not safe for concurrent use; this package is how
// concurrent callers (cmd/attached, tests, user code via
// attache.NewEngine) get at it. Exclusive ownership is enforced by each
// shard's execution lock: either the shard goroutine (draining the ring)
// or one inline submitter holds it, never both.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/snap"
	"attache/internal/stats"
	"attache/internal/tier"
)

// ErrClosed reports an operation on an engine after Close.
var ErrClosed = errors.New("shard: engine closed")

// OpErrors is the op-error taxonomy: every sentinel an op can fail
// with, the label reports file it under, and the HTTP status the daemon
// answers it with. It is the only place the three are paired —
// the daemon's status mapping, the client's mapping back from statuses
// and from per-op error strings, and loadgen's classifier all iterate
// it, first match wins. An error matching no row is "other" / 500.
//
// Order matters where one error can carry two sentinels: a client call
// that ran out of deadline budget while being shed wraps both
// ErrOverloaded and DeadlineExceeded, and counts as overloaded.
var OpErrors = []struct {
	Sentinel error
	Label    string
	Status   int
}{
	{core.ErrOverloaded, "overloaded", http.StatusTooManyRequests},
	{context.DeadlineExceeded, "deadline", http.StatusGatewayTimeout},
	// 499 is nginx's "client closed request": the caller went away, so
	// nobody reads it, but it keeps access logs and metrics truthful.
	{context.Canceled, "canceled", 499},
	{ErrFaultInjected, "fault_injected", http.StatusInternalServerError},
	{ErrClosed, "closed", http.StatusServiceUnavailable},
	{core.ErrNeverWritten, "never_written", http.StatusNotFound},
	{core.ErrBadLineSize, "bad_line_size", http.StatusBadRequest},
	{core.ErrOutOfRange, "out_of_range", http.StatusBadRequest},
}

// Config sizes the engine.
type Config struct {
	// Shards is the number of independent Memory shards (and goroutines).
	// 0 defaults to GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard ring buffer: how many submitted tasks a
	// shard can hold before backpressure kicks in. Do blocks on a full
	// ring; DoCtx sheds instead, failing the shard's ops with
	// core.ErrOverloaded. 0 defaults to 64.
	QueueDepth int
	// MaxLines, when non-zero, bounds the line address space: ops at
	// addresses >= MaxLines fail with core.ErrOutOfRange.
	MaxLines uint64
	// Faults, when enabled, injects seeded delays/errors/partial-batch
	// failures into every shard's pipeline. Off (zero) by default.
	Faults FaultPlan
	// Tier, when non-nil, fronts every shard's compressed Memory with an
	// uncompressed near tier (the CXL scenario): Tier.NearLines is the
	// engine-level capacity, split across shards. nil keeps the classic
	// single-tier engine, and a zero-capacity near tier is bit-identical
	// to it by construction.
	Tier *tier.Config
	// Obs, when non-nil, turns on pipeline tracing: requests carrying a
	// trace in their context (and a sampled fraction of the rest, per the
	// observer's sample rate) get enqueue/dequeue/execute/respond spans
	// recorded, decomposing latency into queue wait vs. service time.
	// nil (the default) costs one branch per submission and zero
	// allocations. Spans survive the inline fast path: an inline-executed
	// task records the same four stages with a ~zero queue wait.
	Obs *obs.Observer

	// noInline disables the inline fast path, forcing every task through
	// the ring and the shard goroutine — the deterministic "contended"
	// configuration used by tests and benchmarks to pin the handoff path.
	noInline bool
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	return c
}

// Op is one read or write in a batch.
type Op struct {
	// Write selects the operation; false means read.
	Write bool
	// Addr is the line address.
	Addr uint64
	// Data is the 64-byte payload for writes; it must not be mutated
	// until the submitting call returns. Ignored for reads.
	Data []byte
}

// Result is the outcome of one Op, in submission order.
type Result struct {
	// Data holds the line read; nil for writes and failed ops. It is a
	// capacity-clipped 64-byte slice of an arena its batch's reads share:
	// the caller's to keep and to modify, but retaining one Data keeps the
	// whole arena (64 B x the batch's reads) reachable.
	Data []byte
	// Err is the op's failure, if any; batch submission isolates
	// failures per op, so one bad op never poisons its neighbours.
	Err error
}

// task is one shard's slice of a submitted batch, or (when snap is
// non-nil) a stats-snapshot marker flowing through the same pipeline so
// it serializes against in-flight ops. ops is the submitter's full batch
// and idx the positions owned by this shard; both are borrowed, never
// copied — the submitter blocks until done fires, so sharing is safe and
// the steady-state path allocates nothing. ctx is non-nil only for DoCtx
// submissions; execution checks it once per task so a cancelled task
// frees its ring slot without executing.
type task struct {
	ctx  context.Context
	ops  []Op
	idx  []int // positions of this shard's ops in ops / res
	res  []Result
	snap *shardStats
	done *sync.WaitGroup

	// tr, when non-nil, receives this task's pipeline spans; enq is the
	// trace-relative enqueue instant the dequeue span starts from. Both
	// are zero on the untraced path.
	tr  *obs.Trace
	enq time.Duration
}

// submitState is the reusable per-submission envelope: the per-shard
// index lists and the completion WaitGroup. Pooled per engine so the
// steady-state submit path performs zero envelope allocations; it is
// returned to the pool only after done.Wait(), when no worker can still
// reference its slices.
type submitState struct {
	perShard [][]int
	done     sync.WaitGroup
}

// robustCounters are the engine-level degradation counters: everything
// that happened to ops besides executing them. They sit off the happy
// path — an op that executes normally touches none of them.
type robustCounters struct {
	sheds          atomic.Uint64
	canceled       atomic.Uint64
	injectedErrs   atomic.Uint64
	injectedDelays atomic.Uint64
}

// load reads the four counters into their exported form.
func (r *robustCounters) load() RobustStats {
	return RobustStats{
		Sheds:          r.sheds.Load(),
		Canceled:       r.canceled.Load(),
		InjectedErrors: r.injectedErrs.Load(),
		InjectedDelays: r.injectedDelays.Load(),
	}
}

// RobustStats is the exported snapshot of the degradation counters.
type RobustStats struct {
	// Sheds counts ops rejected with ErrOverloaded because their shard's
	// ring was full at DoCtx admission.
	Sheds uint64 `json:"sheds" prom:"attached_shed_ops_total,counter" help:"Ops rejected with ErrOverloaded at shard-queue admission."`
	// Canceled counts ops that returned a context error: expired or
	// cancelled while queued, skipped without executing.
	Canceled uint64 `json:"canceled" prom:"attached_canceled_ops_total,counter" help:"Ops skipped because their context expired in the queue."`
	// InjectedErrors / InjectedDelays count fault-injection outcomes
	// (always 0 with injection off).
	InjectedErrors uint64 `json:"injected_errors" prom:"attached_injected_errors_total,counter" help:"Fault-injection errors (0 unless a fault plan is active)."`
	InjectedDelays uint64 `json:"injected_delays" prom:"attached_injected_delays_total,counter" help:"Fault-injection delays (0 unless a fault plan is active)."`
}

// worker owns one shard: one Memory, one goroutine, one ring, and (when
// fault injection is on) one seeded injector.
//
// Two locks with distinct roles: memMu is the execution right — whoever
// holds it (the shard goroutine draining the ring, or a submitter on the
// inline fast path) owns mem exclusively; mu guards the ring state and
// the condition variable blocked submitters wait on. The only path that
// holds both is the drain loop (memMu outermost), so the pair cannot
// deadlock. inflight and lastBatch are the shard's queue telemetry,
// maintained unconditionally (two atomic ops per task, no allocation) so
// Engine.Gauges always has live data.
type worker struct {
	id  int
	mem *core.Memory
	// tier, when non-nil, is the two-tier front over mem (which is then
	// the far tier); ops dispatch through it and mem's own counters
	// describe far-tier traffic only.
	tier   *tier.Memory
	inj    *injector
	robust *robustCounters

	memMu sync.Mutex // execution right over mem (drain loop or inline submitter)

	mu          sync.Mutex
	cond        sync.Cond // ring space freed, or Close fired
	ring        []task    // power-of-two circular buffer
	mask        uint64
	head        uint64 // ring[head&mask] is the next task to pop
	tail        uint64 // ring[tail&mask] is the next free slot
	depth       uint64 // admission cap (Config.QueueDepth)
	interrupted bool   // Close fired: blocked admits abandon with ErrClosed
	stopped     bool   // no enqueue can ever arrive again: drain and exit

	wake chan struct{} // cap-1 doorbell: the ring went non-empty

	qlen      atomic.Int64 // tasks currently in the ring
	inflight  atomic.Int64 // op tasks admitted but not yet completed
	lastBatch atomic.Int64 // ops in the most recently executed task
}

// push appends t to the ring. Callers hold w.mu and have checked space.
func (w *worker) push(t task) {
	w.ring[w.tail&w.mask] = t
	w.tail++
	w.qlen.Add(1)
}

// signal rings the worker's doorbell; a full buffer means a wakeup is
// already pending, which covers this push too.
func (w *worker) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// admit pushes t with Do's blocking backpressure: a full ring waits for
// space. Reports false when Close interrupts the wait instead.
func (w *worker) admit(t task) bool {
	w.mu.Lock()
	for w.tail-w.head >= w.depth {
		if w.interrupted {
			w.mu.Unlock()
			return false
		}
		w.cond.Wait()
	}
	w.push(t)
	w.mu.Unlock()
	w.signal()
	return true
}

// tryAdmit pushes t only if the ring has space — DoCtx's shed-on-full
// admission control.
func (w *worker) tryAdmit(t task) bool {
	w.mu.Lock()
	if w.tail-w.head >= w.depth {
		w.mu.Unlock()
		return false
	}
	w.push(t)
	w.mu.Unlock()
	w.signal()
	return true
}

// admitAlways pushes t, waiting out a full ring even during Close — used
// by StatsSnapshot markers, which must reach the shard as long as its
// goroutine is alive (guaranteed while the submitter holds the engine's
// read lock).
func (w *worker) admitAlways(t task) {
	w.mu.Lock()
	for w.tail-w.head >= w.depth {
		w.cond.Wait()
	}
	w.push(t)
	w.mu.Unlock()
	w.signal()
}

// run is the shard goroutine: sleep on the doorbell, drain the whole
// backlog, exit once Close has guaranteed no further enqueues and the
// ring is empty.
func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		<-w.wake
		w.drain()
		w.mu.Lock()
		exit := w.stopped && w.head == w.tail
		w.mu.Unlock()
		if exit {
			return
		}
	}
}

// drain claims the execution right once and applies every queued task —
// the amortization that replaces a per-task channel handoff. Popping a
// task frees its ring slot immediately (before execution), so blocked
// submitters make progress while the batch runs.
func (w *worker) drain() {
	if w.qlen.Load() == 0 {
		return
	}
	w.memMu.Lock()
	for {
		w.mu.Lock()
		if w.head == w.tail {
			w.mu.Unlock()
			break
		}
		t := w.ring[w.head&w.mask]
		w.ring[w.head&w.mask] = task{} // drop borrowed slices promptly
		w.head++
		w.qlen.Add(-1)
		w.cond.Broadcast()
		w.mu.Unlock()
		w.execute(&t)
	}
	w.memMu.Unlock()
}

// execute applies one admitted task against the shard's memory. The
// caller holds w.memMu. Snapshot markers publish and return; op tasks
// honor cancellation, fault injection, and span recording exactly the
// same way whether they arrived through the ring or the inline path.
func (w *worker) execute(t *task) {
	if t.snap != nil {
		*t.snap = w.stats()
		t.done.Done()
		return
	}
	w.lastBatch.Store(int64(len(t.idx)))
	if t.tr != nil {
		// The dequeue span is the queue wait: enqueue instant → now.
		// Inline tasks record it too (≈zero), so timelines stay balanced.
		t.tr.Record(obs.StageDequeue, w.id, len(t.idx), t.enq, t.tr.Now())
	}
	// A task whose context died while it sat in the ring is skipped
	// wholesale: the slot was already freed, the memory is untouched, and
	// every op reports the context's error.
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			for _, j := range t.idx {
				t.res[j].Err = err
			}
			w.robust.canceled.Add(uint64(len(t.idx)))
			w.inflight.Add(-1)
			t.done.Done()
			return
		}
	}
	var x0 time.Duration
	if t.tr != nil {
		x0 = t.tr.Now()
	}
	cut := len(t.idx)
	if w.inj != nil {
		cut = w.inj.cut(cut)
	}
	for i, j := range t.idx {
		if w.inj != nil {
			if i >= cut {
				t.res[j].Err = fmt.Errorf("shard: batch died at op %d of %d: %w", i, len(t.idx), ErrFaultInjected)
				w.robust.injectedErrs.Add(1)
				continue
			}
			delayed, err := w.inj.op()
			if delayed {
				w.robust.injectedDelays.Add(1)
			}
			if err != nil {
				t.res[j].Err = fmt.Errorf("shard: op at %#x: %w", t.ops[j].Addr, err)
				w.robust.injectedErrs.Add(1)
				continue
			}
		}
		op := t.ops[j]
		// A read lands in the arena slot submit pointed its Data at.
		switch {
		case op.Write && w.tier != nil:
			t.res[j].Err = w.tier.Write(op.Addr, op.Data)
		case op.Write:
			t.res[j].Err = w.mem.Write(op.Addr, op.Data)
		case w.tier != nil:
			t.res[j].Err = w.tier.ReadInto((*[core.LineSize]byte)(t.res[j].Data), op.Addr)
		default:
			t.res[j].Err = w.mem.ReadInto((*[core.LineSize]byte)(t.res[j].Data), op.Addr)
		}
	}
	if t.tr != nil {
		// The execute span is the service time on this shard.
		t.tr.Record(obs.StageExecute, w.id, len(t.idx), x0, t.tr.Now())
	}
	w.inflight.Add(-1)
	t.done.Done()
}

// Engine is the sharded concurrent compressed-memory pool. All methods
// are safe for concurrent use by any number of goroutines.
type Engine struct {
	cfg       Config
	opts      core.Options // base options; shard i derives its seed from them
	shards    []*worker
	sramBytes int
	robust    robustCounters
	obs       *obs.Observer // nil = tracing off
	states    sync.Pool     // *submitState envelopes, reused across submissions

	closing atomic.Bool

	mu     sync.RWMutex // guards closed vs. submissions; not on the per-shard hot path
	closed bool
	wg     sync.WaitGroup
}

// New builds an engine of cfg.Shards independent Memory shards, each
// configured from opts. Shard i derives its seed from opts.Seed so a
// 1-shard engine is bit-identical to a plain NewMemory(opts).
func New(opts core.Options, cfg Config) (*Engine, error) {
	return build(opts, cfg, nil)
}

// shardTierConfig splits an engine-level tier configuration across
// shards: a positive near capacity distributes as evenly as possible
// (low shards take the remainder); zero and unbounded pass through.
func shardTierConfig(tc tier.Config, i, shards int) tier.Config {
	if tc.NearLines > 0 {
		per := tc.NearLines / int64(shards)
		if int64(i) < tc.NearLines%int64(shards) {
			per++
		}
		tc.NearLines = per
	}
	return tc
}

// build is the shared constructor behind New and DecodeEngine: c, when
// non-nil, is a decoder positioned at the first shard's section, and
// each shard's fresh memory and tier read their state from it instead
// of starting empty. No goroutine starts until every shard is built, so
// a failure leaves nothing to close.
func build(opts core.Options, cfg Config, c *snap.Cursor) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d not in [1,∞): %w", cfg.Shards, core.ErrOutOfRange)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("shard: queue depth %d not in [1,∞): %w", cfg.QueueDepth, core.ErrOutOfRange)
	}
	if err := cfg.Faults.validate(); err != nil {
		return nil, err
	}
	if cfg.Tier != nil {
		if err := cfg.Tier.Validate(); err != nil {
			return nil, err
		}
	}
	e := &Engine{cfg: cfg, opts: opts, shards: make([]*worker, cfg.Shards), obs: cfg.Obs}
	e.states.New = func() any {
		return &submitState{perShard: make([][]int, cfg.Shards)}
	}
	ringLen := uint64(1)
	for ringLen < uint64(cfg.QueueDepth) {
		ringLen <<= 1
	}
	for i := range e.shards {
		o := opts
		// Shard 0 keeps the caller's seed exactly (single-shard results
		// must match a plain Memory); later shards mix in their index so
		// each gets a distinct CID and scrambler key.
		o.Seed = opts.Seed ^ int64(uint64(i)*0x9E3779B97F4A7C15)
		// A snapshot that configures predictor tables must also carry
		// them: hold its options to its length before allocating. (What
		// it configures invalidly, NewMemory refuses.)
		if pc, on := o.PredictorConfig(); c != nil && on && pc.Validate() == nil && pc.SnapshotBytes() > c.Remaining() {
			return nil, fmt.Errorf("shard %d: configured predictor needs %d bytes, %d remain: %w", i, pc.SnapshotBytes(), c.Remaining(), snap.ErrCorrupt)
		}
		mem, err := core.NewMemory(o)
		if err != nil {
			return nil, err
		}
		var tm *tier.Memory
		if cfg.Tier != nil {
			if tm, err = tier.NewMemory(shardTierConfig(*cfg.Tier, i, cfg.Shards), mem); err != nil {
				return nil, err
			}
		}
		e.sramBytes += mem.Framework().StorageOverheadBytes()
		w := &worker{
			id:     i,
			mem:    mem,
			tier:   tm,
			ring:   make([]task, ringLen),
			mask:   ringLen - 1,
			depth:  uint64(cfg.QueueDepth),
			wake:   make(chan struct{}, 1),
			inj:    newInjector(cfg.Faults, i),
			robust: &e.robust,
		}
		w.cond.L = &w.mu
		e.shards[i] = w
		if c != nil {
			w.walkSnap(c)
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	for _, w := range e.shards {
		e.wg.Add(1)
		go w.run(&e.wg)
	}
	return e, nil
}

// shardFor maps a line address to its owning shard: the splitmix64
// finalizer gives full avalanche over strided address patterns, then a
// multiply-shift (Lemire) reduction maps the mixed value to [0, shards)
// without the modulo bias — and without the hardware divide — that a
// plain `%` pays when the shard count is not a power of two.
func (e *Engine) shardFor(addr uint64) int {
	hi, _ := bits.Mul64(stats.SplitMix64(addr), uint64(len(e.shards)))
	return int(hi)
}

// Shards reports the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// StorageOverheadBytes reports the summed SRAM cost of every shard's
// predictor tables and CID register.
func (e *Engine) StorageOverheadBytes() int { return e.sramBytes }

// InFlight reports the total tasks admitted to the engine but not yet
// completed, summed across shards. Lock-free and safe at any time; the
// cluster's least-loaded router reads it as its load signal.
func (e *Engine) InFlight() int64 {
	var n int64
	for _, w := range e.shards {
		n += w.inflight.Load()
	}
	return n
}

// Gauges reads each shard's live queue telemetry: ring depth (tasks
// buffered waiting for the shard), in-flight count (tasks admitted but
// not yet completed), and the size of the last executed batch. Lock-free
// and safe at any time; feed it to obs.PollGauges for a periodic signal.
func (e *Engine) Gauges() []obs.ShardGauge {
	out := make([]obs.ShardGauge, len(e.shards))
	for i, w := range e.shards {
		out[i] = obs.ShardGauge{
			Shard:        i,
			QueueDepth:   int(w.qlen.Load()),
			InFlight:     w.inflight.Load(),
			LastBatchOps: w.lastBatch.Load(),
		}
	}
	return out
}

// Do submits a batch of ops and blocks until every op completes,
// returning results in submission order. Failures are isolated per op.
// Do itself errors only when the engine is closed.
//
// A full shard ring applies backpressure: Do blocks until the shard
// drains (or Close interrupts the wait, failing the unsent ops with
// ErrClosed per op). For deadline-aware submission and load shedding use
// DoCtx.
//
// Ops for the same shard are applied in batch order; ops for different
// shards run concurrently. Two racing Do calls that touch the same
// address are serialized by that address's shard, in admission order
// (inline claims and ring order).
func (e *Engine) Do(ops []Op) ([]Result, error) {
	return e.submit(nil, ops)
}

// DoCtx is Do with deadline, cancellation, and load-shed semantics:
//
//   - An already-expired or cancelled ctx returns (nil, ctx.Err())
//     immediately — nothing is enqueued, nothing executes.
//   - Admission is non-blocking: a full shard ring sheds that shard's
//     ops with core.ErrOverloaded per op instead of waiting. Shed ops
//     were never enqueued and had no effect.
//   - If ctx dies while a task is queued, the owning shard skips the
//     task (freeing the slot without executing) and its ops report
//     ctx.Err() per op.
//
// Ops that were already enqueued when ctx expires still complete if the
// shard reaches them first; DoCtx always waits for enqueued tasks to be
// resolved one way or the other, so results are never torn.
func (e *Engine) DoCtx(ctx context.Context, ops []Op) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.submit(ctx, ops)
}

// submit routes ops to their shards. ctx == nil selects Do's blocking
// backpressure; a non-nil ctx selects DoCtx's shed-on-full admission.
//
// Per shard, admission takes the inline fast path when the shard is
// uncontended: claim the execution lock, verify the ring is empty, and
// apply the ops right here on the submitting goroutine — zero handoff,
// zero allocation. A busy shard falls back to the ring. The steady-state
// cost of a submission is therefore two allocations whatever its size:
// the Result slice, and — when the batch has reads — one arena of 64
// bytes per read that every read's Data is a capacity-clipped slice of.
// The index lists and completion WaitGroup come from the engine's pool.
//
// The arena is fresh per call and never recycled, so results stay valid
// for as long as the caller keeps them; the price is that retaining one
// Result.Data pins its whole batch's arena (at most 64 B x reads).
func (e *Engine) submit(ctx context.Context, ops []Op) ([]Result, error) {
	res := make([]Result, len(ops))
	if len(ops) == 0 {
		return res, nil
	}
	reads := 0
	for i := range ops {
		if !ops[i].Write {
			reads++
		}
	}
	arena := make([]byte, reads*core.LineSize)
	// Trace resolution: a trace already in the context (the HTTP layer or
	// a harness put it there) is always honored; otherwise the observer's
	// sampler may start one that the engine owns and finishes itself.
	// With no observer configured this is a single nil check.
	var tr *obs.Trace
	owned := false
	if e.obs != nil {
		if ctx != nil {
			tr = obs.TraceFromContext(ctx)
		}
		if tr == nil && e.obs.Sampled() {
			tr = e.obs.StartTrace(0)
			owned = true
		}
	}
	st := e.states.Get().(*submitState)
	perShard := st.perShard
	for i := range perShard {
		perShard[i] = perShard[i][:0]
	}
	for i, op := range ops {
		if e.cfg.MaxLines > 0 && op.Addr >= e.cfg.MaxLines {
			res[i].Err = fmt.Errorf("shard: addr %#x beyond configured capacity %d: %w",
				op.Addr, e.cfg.MaxLines, core.ErrOutOfRange)
			continue
		}
		if !op.Write {
			res[i].Data, arena = arena[:core.LineSize:core.LineSize], arena[core.LineSize:]
		}
		s := e.shardFor(op.Addr)
		perShard[s] = append(perShard[s], i)
	}

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.states.Put(st)
		return nil, ErrClosed
	}
	closing := false
	for s, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		if closing {
			// Close fired mid-submission: fail the rest without blocking.
			markAll(res, idx, fmt.Errorf("shard: shard %d: submit interrupted by Close: %w", s, ErrClosed))
			continue
		}
		w := e.shards[s]
		t := task{ctx: ctx, ops: ops, idx: idx, res: res, done: &st.done}
		if tr != nil {
			t.tr = tr
			t.enq = tr.Now()
		}
		st.done.Add(1)
		if !e.cfg.noInline && w.memMu.TryLock() {
			if w.qlen.Load() == 0 {
				// Inline fast path: the shard is idle and we hold its
				// execution right — run the ops here, no handoff.
				w.inflight.Add(1)
				if tr != nil {
					tr.Record(obs.StageEnqueue, s, len(idx), t.enq, t.enq)
				}
				w.execute(&t)
				w.memMu.Unlock()
				continue
			}
			// Tasks are queued ahead of us; keep FIFO, use the ring.
			w.memMu.Unlock()
		}
		sent := false
		if ctx == nil {
			if w.admit(t) {
				sent = true
			} else {
				st.done.Done()
				closing = true
				markAll(res, idx, fmt.Errorf("shard: shard %d: submit interrupted by Close: %w", s, ErrClosed))
			}
		} else {
			if w.tryAdmit(t) {
				sent = true
			} else {
				st.done.Done()
				e.robust.sheds.Add(uint64(len(idx)))
				markAll(res, idx, fmt.Errorf("shard: shard %d queue full (depth %d): %w",
					s, e.cfg.QueueDepth, core.ErrOverloaded))
			}
		}
		if sent {
			w.inflight.Add(1)
			if tr != nil {
				// Enqueue is recorded only for tasks that actually entered
				// a ring, so shed submissions never leave a dangling span.
				tr.Record(obs.StageEnqueue, s, len(idx), t.enq, t.enq)
			}
		}
	}
	e.mu.RUnlock()
	st.done.Wait()
	if tr != nil {
		now := tr.Now()
		tr.Record(obs.StageRespond, -1, len(ops), now, now)
		if owned {
			e.obs.Finish(tr)
		}
	}
	// Every task has completed; no worker references the envelope now.
	e.states.Put(st)
	// A read that failed, was shed, cancelled or never ran keeps no slot.
	for i := range res {
		if res[i].Err != nil {
			res[i].Data = nil
		}
	}
	return res, nil
}

// markAll fails every op at positions idx with err.
func markAll(res []Result, idx []int, err error) {
	for _, j := range idx {
		res[j].Err = err
	}
}

// Read loads the 64-byte line at addr through the pipeline.
func (e *Engine) Read(addr uint64) ([]byte, error) {
	res, err := e.Do([]Op{{Addr: addr}})
	if err != nil {
		return nil, err
	}
	return res[0].Data, res[0].Err
}

// Write stores a 64-byte line at addr through the pipeline.
func (e *Engine) Write(addr uint64, data []byte) error {
	res, err := e.Do([]Op{{Write: true, Addr: addr, Data: data}})
	if err != nil {
		return err
	}
	return res[0].Err
}

// Snapshot is the engine-level stats view: the merged totals plus each
// shard's own snapshot.
type Snapshot struct {
	// Total merges every shard with core.StatsSnapshot.Accumulate:
	// counters sum; PredictionAccuracy is the reads-weighted mean.
	Total core.StatsSnapshot `json:"total"`
	// PerShard holds shard i's snapshot at index i.
	PerShard []core.StatsSnapshot `json:"per_shard"`
	// SRAMBytes is the summed predictor + CID register overhead.
	SRAMBytes int `json:"sram_bytes"`
	// Robust holds the engine-level degradation counters: sheds,
	// cancellations, and injected faults. Ops counted here never touched
	// a Memory, so they are disjoint from the per-shard counters.
	Robust RobustStats `json:"robust"`
	// Tiers, present only on tiered engines, merges the per-shard tier
	// snapshots. On a tiered engine Total/PerShard describe the far
	// (compressed) tier only; near-tier traffic lives here.
	Tiers *tier.Snapshot `json:"tiers,omitempty"`
}

// StatsSnapshot captures a coherent per-shard snapshot: an idle shard is
// read directly under its execution lock; a busy one gets a marker
// routed through its ring so the snapshot serializes against in-flight
// ops. After Close it reads the idle shards directly, so a final
// post-drain snapshot still works.
func (e *Engine) StatsSnapshot() Snapshot {
	snap := Snapshot{
		PerShard:  make([]core.StatsSnapshot, len(e.shards)),
		SRAMBytes: e.sramBytes,
		Robust:    e.robust.load(),
	}
	per := make([]shardStats, len(e.shards))
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		// Workers have exited (Close waited for them), so direct reads
		// are exclusive again.
		for i, w := range e.shards {
			per[i] = w.stats()
		}
	} else {
		var done sync.WaitGroup
		for i, w := range e.shards {
			if w.memMu.TryLock() {
				if w.qlen.Load() == 0 {
					per[i] = w.stats()
					w.memMu.Unlock()
					continue
				}
				w.memMu.Unlock()
			}
			done.Add(1)
			w.admitAlways(task{snap: &per[i], done: &done})
		}
		e.mu.RUnlock()
		done.Wait()
	}
	var tiers tier.Snapshot
	for i, s := range per {
		snap.PerShard[i] = s.mem
		snap.Total.Accumulate(s.mem)
		tiers.Accumulate(s.tier)
	}
	if e.cfg.Tier != nil {
		snap.Tiers = &tiers
	}
	return snap
}

// shardStats is one shard's stats record, the single channel from a
// worker to StatsSnapshot: the far (or only) memory's counters, plus
// the tier's on a tiered engine (zero otherwise).
type shardStats struct {
	mem  core.StatsSnapshot
	tier tier.Snapshot
}

// stats reads the shard's record. The caller holds the execution right
// (w.memMu, or the engine is closed).
func (w *worker) stats() shardStats {
	s := shardStats{mem: w.mem.StatsSnapshot()}
	if w.tier != nil {
		s.tier = w.tier.Snapshot()
	}
	return s
}

// Tiered reports whether the engine runs the two-tier backend.
func (e *Engine) Tiered() bool { return e.cfg.Tier != nil }

// TierSnapshot reports the merged tier snapshot of a tiered engine; ok
// is false on a classic single-tier engine. Coherence matches
// StatsSnapshot (execution lock or marker per shard).
func (e *Engine) TierSnapshot() (tier.Snapshot, bool) {
	if e.cfg.Tier == nil {
		return tier.Snapshot{}, false
	}
	s := e.StatsSnapshot()
	return *s.Tiers, true
}

// Close drains every shard's ring and stops the shard goroutines.
// In-flight and queued ops complete; subsequent submissions fail with
// ErrClosed. A Do blocked on a full ring when Close fires is
// interrupted: its unsent ops fail with ErrClosed per op instead of
// holding the caller (and Close) hostage behind backpressure. Close is
// idempotent: the first call drains, later calls report ErrClosed.
func (e *Engine) Close() error {
	if !e.closing.CompareAndSwap(false, true) {
		return ErrClosed
	}
	// Interrupt submitters blocked on full rings first; only then can the
	// write lock be acquired (blocked submitters hold the read lock while
	// they wait for ring space).
	for _, w := range e.shards {
		w.mu.Lock()
		w.interrupted = true
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	// No submitter can admit past this point (they all observe closed);
	// tell the shard goroutines to finish the backlog and exit.
	for _, w := range e.shards {
		w.mu.Lock()
		w.stopped = true
		w.mu.Unlock()
		w.signal()
	}
	e.wg.Wait()
	return nil
}
