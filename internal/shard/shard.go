// Package shard provides the concurrent entry point to the Attaché
// functional memory: an N-way address-sharded pool of core.Memory
// instances, each behind one lock.
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
//   - A shard is a lock, not a goroutine: the submitter applies its ops
//     itself, on its own goroutine, while it holds the shard's execution
//     lock — no handoff, no goroutine switch, no allocation. It first
//     tries every shard it has ops for and runs the free ones; for each
//     that was busy it then waits for the lock as one of at most
//     Config.QueueDepth submitters that may wait for a busy shard (DoCtx
//     sheds past that bound, Do waits regardless). This is the software
//     analogue of the paper's thesis: the per-access metadata cost (here,
//     a queue and a goroutine switch per submission) is elided, not
//     parallelized.
//   - Pooled envelopes: the per-shard index lists a submission routes
//     with are reused, so a submission allocates its results and nothing
//     else.
//   - Stats: each shard mutates only its own Memory's counters.
//     StatsSnapshot takes each shard's lock in turn, so every shard
//     publishes a coherent core.StatsSnapshot, then merges them with
//     Accumulate — aggregation by ownership rather than by atomics.
//
// Two things this shape does not give: waiters get a busy shard in
// sync.Mutex order (a new arrival may barge past them until the mutex's
// 1 ms starvation mode hands off strictly) rather than first come, first
// served — racing submissions never had a defined order — and one
// submission's shards do not execute in parallel when several are busy.
//
// core.Memory itself is not safe for concurrent use; this package is how
// concurrent callers (cmd/attached, tests, user code via
// attache.NewEngine) get at it. Exclusive ownership is the shard's
// execution lock: whoever holds it — one submitter, a stats read or a
// snapshot — owns the shard's memory.
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
	// Shards is the number of independent Memory shards, each behind its
	// own lock. 0 defaults to GOMAXPROCS.
	Shards int
	// QueueDepth is, per shard, how many submitters that may wait for a
	// busy shard: a DoCtx that would be one more sheds instead, failing
	// the shard's ops with core.ErrOverloaded; Do waits regardless.
	// 0 defaults to 64.
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

// task is one shard's slice of a submitted batch. ops is the submitter's
// full batch and idx the positions owned by this shard; both are
// borrowed, never copied — the submitter runs the task itself, so the
// steady-state path allocates nothing. ctx is non-nil only for DoCtx
// submissions; execution checks it once per task, so a task whose
// context died while it waited for the shard is skipped.
type task struct {
	ctx context.Context
	ops []Op
	idx []int // positions of this shard's ops in ops / res
	res []Result

	// tr, when non-nil, receives this task's pipeline spans; enq is the
	// trace-relative arrival instant the dequeue span starts from. Both
	// are zero on the untraced path.
	tr  *obs.Trace
	enq time.Duration
}

// submitState is the reusable per-submission envelope, pooled per engine:
// the per-shard index lists.
type submitState struct {
	perShard [][]int
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
	// Sheds counts ops rejected with ErrOverloaded because their shard
	// already had QueueDepth submitters waiting when a DoCtx arrived.
	Sheds uint64 `json:"sheds" prom:"attached_shed_ops_total,counter" help:"Ops rejected with ErrOverloaded at shard-queue admission."`
	// Canceled counts ops that returned a context error: expired or
	// cancelled while waiting for their shard, skipped without executing.
	Canceled uint64 `json:"canceled" prom:"attached_canceled_ops_total,counter" help:"Ops skipped because their context expired in the queue."`
	// InjectedErrors / InjectedDelays count fault-injection outcomes
	// (always 0 with injection off).
	InjectedErrors uint64 `json:"injected_errors" prom:"attached_injected_errors_total,counter" help:"Fault-injection errors (0 unless a fault plan is active)."`
	InjectedDelays uint64 `json:"injected_delays" prom:"attached_injected_delays_total,counter" help:"Fault-injection delays (0 unless a fault plan is active)."`
}

// worker owns one shard: one Memory, one lock, and (when fault injection
// is on) one seeded injector.
//
// memMu is the execution right — whoever holds it (a submitter, a stats
// read, a snapshot) owns mem exclusively. waiters, inflight and lastBatch
// are the shard's queue telemetry, maintained unconditionally (atomic
// ops, no allocation) so Engine.Gauges always has live data.
type worker struct {
	id  int
	mem *core.Memory
	// tier, when non-nil, is the two-tier front over mem (which is then
	// the far tier); ops dispatch through it and mem's own counters
	// describe far-tier traffic only.
	tier   *tier.Memory
	inj    *injector
	robust *robustCounters

	memMu sync.Mutex // execution right over mem

	waiters   atomic.Int64 // submitters blocked on memMu
	inflight  atomic.Int64 // tasks waiting for memMu or executing under it
	lastBatch atomic.Int64 // ops in the most recently executed task
}

// join counts the caller among the submitters blocked on w.memMu. A
// bounded caller (DoCtx) is refused, and not counted, when depth of them
// already wait; the compare-and-swap keeps the count from ever passing
// depth on bounded callers' account, even for an instant.
func (w *worker) join(bounded bool, depth int64) bool {
	for {
		n := w.waiters.Load()
		if bounded && n >= depth {
			return false
		}
		if w.waiters.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// execute applies one task against the shard's memory and counts it out
// of inflight. The caller holds w.memMu. Cancellation, fault injection
// and span recording are the same whether or not the task had to wait.
func (w *worker) execute(t *task) {
	w.lastBatch.Store(int64(len(t.idx)))
	if t.tr != nil {
		// The dequeue span is the wait for the shard: arrival → lock held
		// (≈zero on a free shard), so timelines stay balanced.
		t.tr.Record(obs.StageDequeue, w.id, len(t.idx), t.enq, t.tr.Now())
	}
	// A task whose context died while it waited is skipped wholesale: the
	// memory is untouched and every op reports the context's error.
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			for _, j := range t.idx {
				t.res[j].Err = err
			}
			w.robust.canceled.Add(uint64(len(t.idx)))
			w.inflight.Add(-1)
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
}

// Engine is the sharded concurrent compressed-memory pool. All methods
// are safe for concurrent use by any number of goroutines.
type Engine struct {
	cfg       Config
	opts      core.Options // base options; shard i derives its seed from them
	shards    []*worker
	sramBytes int
	robust    robustCounters
	states    sync.Pool // *submitState envelopes, reused across submissions

	// mu orders Close against submissions: a submission holds it for
	// reading from its closed check until its last shard unlocks, Close
	// takes it for writing. Lock order is mu (read), then at most one
	// memMu; EncodeSnapshot alone holds several memMu, and never mu.
	mu     sync.RWMutex
	closed bool
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
// of starting empty. An engine owns no goroutine, so a failure leaves
// nothing to close.
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
	e := &Engine{cfg: cfg, opts: opts, shards: make([]*worker, cfg.Shards)}
	e.states.New = func() any {
		return &submitState{perShard: make([][]int, cfg.Shards)}
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
		w := &worker{id: i, mem: mem, tier: tm, inj: newInjector(cfg.Faults, i), robust: &e.robust}
		e.shards[i] = w
		if c != nil {
			w.walkSnap(c)
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
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

// Gauges reads each shard's live queue telemetry: queue depth (tasks
// waiting for the shard), in-flight count (waiting plus executing), and
// the size of the last executed batch. Lock-free and safe at any time.
func (e *Engine) Gauges() []obs.ShardGauge {
	out := make([]obs.ShardGauge, len(e.shards))
	for i, w := range e.shards {
		out[i] = obs.ShardGauge{
			Shard:        i,
			QueueDepth:   int(w.waiters.Load()),
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
// A busy shard applies backpressure: Do waits for it however many
// submitters already do. For deadline-aware submission and load shedding
// use DoCtx.
//
// Ops for the same shard are applied in batch order and never interleave
// with another submission's. Two racing Do calls that touch the same
// address are serialized by that address's shard, in the order they get
// its lock.
func (e *Engine) Do(ops []Op) ([]Result, error) {
	return e.submit(nil, ops)
}

// DoCtx is Do with deadline, cancellation, and load-shed semantics:
//
//   - An already-expired or cancelled ctx returns (nil, ctx.Err())
//     immediately — nothing executes.
//   - A busy shard that already has QueueDepth submitters waiting sheds
//     this submission's ops for it with core.ErrOverloaded per op
//     instead of waiting. Shed ops had no effect.
//   - If ctx dies while a task waits for its shard, the task is skipped
//     once it gets there and its ops report ctx.Err() per op.
//   - A trace in ctx (obs.ContextWithTrace) receives the submission's
//     enqueue, dequeue, execute and respond spans; its owner finishes it.
//
// A task already executing when ctx expires completes, so results are
// never torn.
func (e *Engine) DoCtx(ctx context.Context, ops []Op) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.submit(ctx, ops)
}

// submit routes ops to their shards and applies them. ctx == nil selects
// Do's wait-regardless backpressure; a non-nil ctx selects DoCtx's
// shedding.
//
// It makes two passes over the shards it has ops for: the first claims
// every free shard's execution lock and applies that shard's ops right
// here on the submitting goroutine; the second, over the shards that were
// busy, waits for each lock in turn. The steady-state cost of a
// submission is two allocations whatever its size: the Result slice, and
// — when the batch has reads — one arena of 64 bytes per read that every
// read's Data is a capacity-clipped slice of. The index lists come from
// the engine's pool.
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
	// The engine records spans into the trace its caller's context carries
	// and never starts or finishes one: whoever received the request (the
	// HTTP layer, a harness, an in-process caller) owns the trace.
	var tr *obs.Trace
	if ctx != nil {
		tr = obs.TraceFromContext(ctx)
	}
	st := e.states.Get().(*submitState)
	defer e.states.Put(st)
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
		return nil, ErrClosed
	}
	t := task{ctx: ctx, ops: ops, res: res, tr: tr}
	for s, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		w := e.shards[s]
		if !w.memMu.TryLock() {
			continue
		}
		// The shard is free and we hold its execution right.
		w.arrive(&t, idx)
		w.execute(&t)
		w.memMu.Unlock()
		perShard[s] = idx[:0] // done: the second pass skips it
	}
	for s, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		w := e.shards[s]
		if !w.join(ctx != nil, int64(e.cfg.QueueDepth)) {
			// Shed before arriving, so a shed submission leaves no span.
			e.robust.sheds.Add(uint64(len(idx)))
			err := fmt.Errorf("shard: shard %d queue full (depth %d): %w", s, e.cfg.QueueDepth, core.ErrOverloaded)
			for _, j := range idx {
				res[j].Err = err
			}
			continue
		}
		w.arrive(&t, idx)
		w.memMu.Lock()
		w.waiters.Add(-1)
		w.execute(&t)
		w.memMu.Unlock()
	}
	e.mu.RUnlock()
	if tr != nil {
		now := tr.Now()
		tr.Record(obs.StageRespond, -1, len(ops), now, now)
	}
	// A read that failed, was shed, cancelled or never ran keeps no slot.
	for i := range res {
		if res[i].Err != nil {
			res[i].Data = nil
		}
	}
	return res, nil
}

// arrive points t at this shard's slice of the batch and counts it in: in
// flight from now until execute returns, its enqueue span recorded at
// this instant.
func (w *worker) arrive(t *task, idx []int) {
	t.idx = idx
	w.inflight.Add(1)
	if t.tr != nil {
		t.enq = t.tr.Now()
		t.tr.Record(obs.StageEnqueue, w.id, len(idx), t.enq, t.enq)
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

// StatsSnapshot captures a coherent per-shard snapshot: it takes each
// shard's execution lock in turn, so every shard's record falls between
// two tasks, never inside one. It works after Close too.
func (e *Engine) StatsSnapshot() Snapshot {
	snap := Snapshot{
		PerShard:  make([]core.StatsSnapshot, len(e.shards)),
		SRAMBytes: e.sramBytes,
		Robust:    e.robust.load(),
	}
	var tiers tier.Snapshot
	for i, w := range e.shards {
		w.memMu.Lock()
		snap.PerShard[i] = w.mem.StatsSnapshot()
		if w.tier != nil {
			tiers.Accumulate(w.tier.Snapshot())
		}
		w.memMu.Unlock()
		snap.Total.Accumulate(snap.PerShard[i])
	}
	if e.cfg.Tier != nil {
		snap.Tiers = &tiers
	}
	return snap
}

// Tiered reports whether the engine runs the two-tier backend.
func (e *Engine) Tiered() bool { return e.cfg.Tier != nil }

// TierSnapshot reports the merged tier snapshot of a tiered engine; ok
// is false on a classic single-tier engine. Coherence matches
// StatsSnapshot (each shard under its execution lock).
func (e *Engine) TierSnapshot() (tier.Snapshot, bool) {
	if e.cfg.Tier == nil {
		return tier.Snapshot{}, false
	}
	s := e.StatsSnapshot()
	return *s.Tiers, true
}

// Close stops the engine: it waits for every submission already past its
// closed check to finish — nothing is cut short — and subsequent
// submissions fail with ErrClosed. StatsSnapshot and WriteSnapshot keep
// working. Close is idempotent: later calls report ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.closed = true
	return nil
}
