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
// Each constructor takes the structs it is built from: Options (start
// from DefaultOptions, the paper's configuration) and, for an Engine, an
// EngineConfig, whose zero value is GOMAXPROCS untiered shards:
//
//	opts := attache.DefaultOptions()
//	opts.CIDBits, opts.Seed = 13, 7
//	mem, err := attache.NewMemory(opts)
//	eng, err := attache.NewEngine(opts, attache.EngineConfig{Shards: 8})
//
// Quickstart:
//
//	mem, err := attache.NewMemory(attache.DefaultOptions())
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

// EngineConfig shapes an Engine: shard count (0 = GOMAXPROCS), per-shard
// queue depth (0 = 64), address bound (0 = unbounded), fault plan, and
// an optional two-tier backend. A 1-shard engine produces bit-identical
// results to a plain Memory with the same Options.
type EngineConfig = shard.Config

// FaultPlan configures seeded, deterministic fault injection on an
// Engine's shard pipelines (per-op delay/error probabilities, per-batch
// partial failure). The zero value disables injection. Set it as
// EngineConfig.Faults.
type FaultPlan = shard.FaultPlan

// TierConfig configures an Engine's two-tier backend, set as
// EngineConfig.Tier: a near tier holding hot lines uncompressed in front
// of each shard's compressed far tier, reached across a modeled far
// link. NearLines is the whole engine's near capacity, split across
// shards: 0 is a zero-capacity near tier (every access goes far,
// bit-identical to the untiered engine) and a negative value is
// unbounded. The policy ("lru", "freq", "static") defaults to LRU and
// the zero Link to DefaultTierLink.
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

// New builds a Framework from opts.
func New(opts Options) (*Framework, error) { return core.New(opts) }

// NewMemory builds a functional compressed Memory from opts.
func NewMemory(opts Options) (*Memory, error) { return core.NewMemory(opts) }

// NewEngine builds a sharded concurrent Engine from opts and cfg. Close
// waits for the submissions in flight and refuses the rest.
func NewEngine(opts Options, cfg EngineConfig) (*Engine, error) { return shard.New(opts, cfg) }

// RestoreEngine rebuilds an Engine from a snapv1 snapshot previously
// written with Engine.WriteSnapshot (or attached -snapshot-on-drain),
// so that every subsequent operation and stats read behaves exactly as
// it would have on the original. The snapshot is authoritative for the
// framework options, tier configuration, and shard count; cfg supplies
// only runtime knobs (queue depth, fault plan, max lines). cfg.Shards
// must be 0 or match the snapshot, and cfg.Tier must be nil.
func RestoreEngine(r io.Reader, cfg EngineConfig) (*Engine, error) {
	return shard.RestoreEngineFrom(r, cfg)
}
