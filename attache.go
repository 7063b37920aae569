// Package attache is a Go implementation of Attaché (Hong, Nair, Abali,
// Buyuktosunoglu, Kim, Healy — MICRO 2018): main-memory compression that
// blends metadata into the data itself (BLEM) and predicts compressibility
// before reads (COPR), eliminating the metadata bandwidth overheads that
// erode the benefits of sub-ranked memory compression.
//
// The package offers three levels of API:
//
//   - A functional compressed memory (Memory / Framework): exact 64-byte
//     line Store/Load round-trips through the real BDI/FPC codecs, the
//     scrambler, the CID/XID blended-metadata header, the Replacement
//     Area, and the COPR predictor — with traffic accounting in sub-rank
//     block units. A Memory is single-goroutine.
//   - A sharded concurrent Engine (NewEngine) that pools N Memory shards,
//     each behind a lock its submitter holds while it runs its own ops —
//     the concurrent entry point, served over HTTP by the cmd/attached
//     daemon.
//   - A full performance-simulation stack under internal/, driven by the
//     attachesim command, that reproduces every table and figure of the
//     paper's evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// There is one constructor per type, and each takes functional options
// over DefaultOptions; WithOptions is the bridge from an Options struct:
//
//	mem, err := attache.NewMemory(attache.WithCIDWidth(13), attache.WithSeed(7))
//	mem, err := attache.NewMemory(attache.WithOptions(opts))
//	eng, err := attache.NewEngine(attache.WithShards(8))
//
// Quickstart:
//
//	mem, err := attache.NewMemory()
//	if err != nil { ... }
//	line := make([]byte, attache.LineSize)
//	copy(line, myData)
//	if err := mem.Write(42, line); err != nil { ... }
//	back, err := mem.Read(42)
//	savings := mem.StatsSnapshot().BandwidthSavings()
//
// Errors wrap the typed sentinels ErrBadLineSize, ErrOutOfRange, and
// ErrNeverWritten; match them with errors.Is.
package attache

import (
	"context"
	"io"

	"attache/internal/copr"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/tier"
)

// LineSize is the memory-block granularity of the framework: one 64-byte
// cacheline.
const LineSize = core.LineSize

// SubRankBlock is the transfer unit of one sub-rank: 32 bytes.
const SubRankBlock = core.SubRankBlock

// Options configures a framework: CID width, seed, predictor sizing.
type Options = core.Options

// PredictorConfig sizes and enables the COPR components (LiPR, PaPR, GI).
type PredictorConfig = copr.Config

// Framework is the Attaché engine: compression, scrambling, BLEM, COPR.
type Framework = core.Framework

// Memory is a functional compressed memory built on the framework. It is
// not safe for concurrent use — concurrent callers go through Engine.
type Memory = core.Memory

// StatsSnapshot is an immutable copy of a Memory's (or, merged, an
// Engine's) counters and derived metrics.
type StatsSnapshot = core.StatsSnapshot

// StoredLine is the physical two-block image of a stored line.
type StoredLine = core.StoredLine

// AccessTrace reports the cost of one framework operation.
type AccessTrace = core.AccessTrace

// Engine is the sharded concurrent compressed-memory pool: N address-
// sharded Memory shards, each behind one lock that the submitter holds
// while it runs its own ops. All Engine methods are safe for concurrent
// use.
//
// Besides the blocking Do/Read/Write surface, the engine offers DoCtx,
// which honors deadlines and cancellation and sheds load with
// ErrOverloaded when a busy shard already has its full count of waiting
// submitters, instead of blocking.
type Engine = shard.Engine

// Op is one read or write in an Engine batch.
type Op = shard.Op

// Result is the per-op outcome of an Engine batch.
type Result = shard.Result

// EngineSnapshot is an Engine's merged stats view (totals + per shard +
// degradation counters).
type EngineSnapshot = shard.Snapshot

// RobustStats are an Engine's degradation counters: load sheds, context
// cancellations, and injected faults.
type RobustStats = shard.RobustStats

// FaultPlan configures seeded, deterministic fault injection on an
// Engine's shard pipelines (per-op delay/error probabilities, per-batch
// partial failure). The zero value disables injection. See WithFaultPlan.
type FaultPlan = shard.FaultPlan

// TierConfig configures an Engine's two-tier backend (see WithTiers):
// near-tier capacity, replacement policy ("lru", "freq", "static"), and
// the far-link cost model. The zero value (then WithDefaults) is an
// unbounded-near LRU tier; NearLines 0 built through WithTiers means
// zero near capacity (pure far passthrough).
type TierConfig = tier.Config

// TierSnapshot is the two-tier stats view an engine or cluster exposes
// when running tiered: residency, per-tier traffic, promotions and
// demotions, and the far-link cost model figures.
type TierSnapshot = tier.Snapshot

// TierLinkModel is the far-link cost model inside a TierConfig: added
// latency, bandwidth multiplier, and per-byte energy weights.
type TierLinkModel = tier.LinkModel

// TraceID identifies one traced request (16 hex digits).
type TraceID = obs.TraceID

// Trace accumulates one request's pipeline spans. Create one with
// NewTrace, attach it with ContextWithTrace, submit through DoCtx, and
// read the queue-wait/service-time split with Decompose or Timeline. The
// caller owns the trace: the Engine only records into it.
type Trace = obs.Trace

// Timeline is the JSON rendering of a finished Trace: raw span events
// plus the queue-wait / service-time / total decomposition.
type Timeline = obs.Timeline

// ShardGauge is one shard's point-in-time telemetry (submitters waiting
// for its lock, in-flight tasks, last batch size), as returned by
// Engine.Gauges.
type ShardGauge = obs.ShardGauge

// Typed sentinel errors; every error the package returns wraps one of
// these (match with errors.Is).
var (
	// ErrBadLineSize reports a write payload that is not exactly LineSize bytes.
	ErrBadLineSize = core.ErrBadLineSize
	// ErrOutOfRange reports a parameter or address outside its configured range.
	ErrOutOfRange = core.ErrOutOfRange
	// ErrNeverWritten reports a read of an address that was never written.
	ErrNeverWritten = core.ErrNeverWritten
	// ErrClosed reports an operation on an Engine after Close.
	ErrClosed = shard.ErrClosed
	// ErrOverloaded reports an op shed by an Engine's admission control:
	// the owning shard's queue was full, the op never ran. Back off and
	// retry (attache/client does this automatically).
	ErrOverloaded = core.ErrOverloaded
	// ErrFaultInjected reports an op failed by an active FaultPlan rather
	// than by the memory itself.
	ErrFaultInjected = shard.ErrFaultInjected
)

// DefaultOptions returns the paper's configuration: a 15-bit CID and the
// 368 KB COPR predictor.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultPredictorConfig returns the paper's 368 KB COPR sizing.
func DefaultPredictorConfig() PredictorConfig { return copr.DefaultConfig() }

// settings is what the functional options assemble: framework Options
// plus the engine-level knobs that only NewEngine consumes.
type settings struct {
	opts       Options
	shards     int
	queueDepth int
	maxLines   uint64
	faults     FaultPlan
	tiers      *TierConfig
}

// Option customizes a constructor. Options compose left to right; later
// options win.
type Option func(*settings)

// WithOptions replaces the framework Options wholesale — the one bridge
// from the struct to the functional-options surface. Engine-level
// settings (shards, queue depth, capacity) are untouched.
func WithOptions(o Options) Option {
	return func(s *settings) { s.opts = o }
}

// WithCIDWidth sets the Compression ID width in bits (15 in the paper,
// valid range [1,15] — checked at construction).
func WithCIDWidth(bits int) Option {
	return func(s *settings) { s.opts.CIDBits = bits }
}

// WithSeed sets the seed deriving the boot-time CID and scrambler key.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.opts.Seed = seed }
}

// WithPredictorSizing replaces the COPR predictor sizing (see
// DefaultPredictorConfig for the paper's 368 KB split).
func WithPredictorSizing(cfg PredictorConfig) Option {
	return func(s *settings) { s.opts.Predictor = cfg }
}

// WithoutPredictor runs BLEM-only: reads conservatively fetch both
// sub-rank blocks.
func WithoutPredictor() Option {
	return func(s *settings) { s.opts.DisablePredictor = true }
}

// WithExtendedCompression adds the CPack dictionary codec to the
// compression engine (the §IV-A5 multi-algorithm configuration).
func WithExtendedCompression() Option {
	return func(s *settings) { s.opts.ExtendedCompression = true }
}

// WithShards sets an Engine's shard count (0 = GOMAXPROCS). Ignored by
// NewMemory, which always builds a single unsharded Memory.
//
// Shards bound parallelism, not baseline cost: a shard is a lock, and
// the submitting goroutine executes its own ops under it (no handoff, no
// per-op allocation), so a lightly loaded engine performs like a plain
// Memory at any shard count, and extra shards only start paying off —
// rather than costing — as concurrent submitters pile up: they are the
// submitters that may wait for a busy shard. A 1-shard engine remains
// bit-identical to an unsharded Memory with the same options.
func WithShards(n int) Option {
	return func(s *settings) { s.shards = n }
}

// WithQueueDepth sets, per shard, how many submitters that may wait for
// a busy shard (0 = 64): a DoCtx that would be one more sheds with
// ErrOverloaded, a Do waits regardless (backpressure). The depth is only
// felt under contention — a submission that finds its shard free never
// waits. Ignored by NewMemory.
func WithQueueDepth(n int) Option {
	return func(s *settings) { s.queueDepth = n }
}

// WithMaxLines bounds an Engine's line address space: ops at addresses
// >= n fail with ErrOutOfRange. 0 (the default) means unbounded. Ignored
// by NewMemory.
func WithMaxLines(n uint64) Option {
	return func(s *settings) { s.maxLines = n }
}

// WithFaultPlan enables seeded fault injection on an Engine's shard
// pipelines — the chaos-testing hook. Off by default (and zero-cost when
// off). Ignored by NewMemory.
func WithFaultPlan(p FaultPlan) Option {
	return func(s *settings) { s.faults = p }
}

// WithTiers puts a two-tier memory backend in front of each shard's
// compressed memory: a bounded near tier holding hot lines uncompressed
// (DRAM-speed, no far-link crossing) over the compressed far tier
// reached across a modeled CXL-style link. The engine's StatsSnapshot
// gains a Tiers section; Total then describes the far tier only. The
// configured NearLines capacity is for the whole engine and is split
// across shards. cfg.NearLines == 0 means a zero-capacity near tier —
// bit-identical to the untiered engine. Ignored by NewMemory.
func WithTiers(cfg TierConfig) Option {
	return func(s *settings) { s.tiers = &cfg }
}

// DefaultTierLink returns the default far-link cost model (250 ns added
// latency, 1x bandwidth, DRAM-vs-CXL energy weights).
func DefaultTierLink() TierLinkModel { return tier.DefaultLink() }

// NewTrace starts an explicit request trace under id, kept as given;
// attach it to a context with ContextWithTrace and submit through the
// Engine's ctx-aware ops. Any Engine records into it, with no further
// setup; the untraced path stays allocation-free.
func NewTrace(id TraceID) *Trace { return obs.NewTrace(id) }

// ContextWithTrace returns a child context carrying tr; Engine ops
// called with it record their pipeline spans into tr.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return obs.ContextWithTrace(ctx, tr)
}

// TraceFromContext returns the context's trace, or nil.
func TraceFromContext(ctx context.Context) *Trace { return obs.TraceFromContext(ctx) }

func apply(opts []Option) settings {
	s := settings{opts: core.DefaultOptions()}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// New builds a Framework from functional options, starting from
// DefaultOptions.
func New(opts ...Option) (*Framework, error) { return core.New(apply(opts).opts) }

// NewMemory builds a functional compressed Memory from functional
// options, starting from DefaultOptions.
func NewMemory(opts ...Option) (*Memory, error) { return core.NewMemory(apply(opts).opts) }

// NewEngine builds a sharded concurrent Engine from functional options,
// starting from DefaultOptions and GOMAXPROCS shards. A 1-shard engine
// produces bit-identical results to a plain Memory with the same
// options. Close waits for the submissions in flight and refuses the rest.
func NewEngine(opts ...Option) (*Engine, error) {
	s := apply(opts)
	return shard.New(s.opts, shard.Config{
		Shards:     s.shards,
		QueueDepth: s.queueDepth,
		MaxLines:   s.maxLines,
		Faults:     s.faults,
		Tier:       s.tiers,
	})
}

// RestoreEngine rebuilds an Engine from a snapv1 snapshot previously
// written with Engine.WriteSnapshot (or attached -snapshot-on-drain),
// so that every subsequent operation and stats read behaves exactly as
// it would have on the original. The snapshot is authoritative for the
// framework options, tier configuration, and shard count; the given
// functional options may supply only runtime knobs (queue depth, fault
// plan, max lines). WithShards must be absent or match the
// snapshot; WithTiers must be absent (the snapshot carries the tier
// configuration).
func RestoreEngine(r io.Reader, opts ...Option) (*Engine, error) {
	s := apply(opts)
	return shard.RestoreEngineFrom(r, shard.Config{
		Shards:     s.shards,
		QueueDepth: s.queueDepth,
		MaxLines:   s.maxLines,
		Faults:     s.faults,
		Tier:       s.tiers,
	})
}
