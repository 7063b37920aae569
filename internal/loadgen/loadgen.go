// Package loadgen is the deterministic load/chaos harness for the
// sharded engine: a seeded open-loop arrival process over configurable
// read/write/batch mixes, reporting throughput, per-op latency
// quantiles, shed rate, and an error taxonomy.
//
// Determinism is the point: Plan expands a Config into the full event
// sequence up front from a single seeded RNG, so the same seed produces
// the same op sequence — same kinds, addresses, payloads, and arrival
// offsets — at any concurrency. Checksum fingerprints that sequence;
// equal checksums mean equal workloads, which is what makes runs at
// different concurrency levels (or on different builds) comparable.
//
// The arrival process is open-loop when Rate > 0: event i fires at its
// scheduled offset whether or not earlier events have completed, so
// queueing delay shows up as latency instead of silently throttling the
// offered load (the classic closed-loop coordination-omission trap).
package loadgen

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/stats"
	"attache/internal/tier"
)

// Target is anything the harness can drive — *shard.Engine satisfies it
// directly, and cmd/attacheload adapts the HTTP client to it.
type Target interface {
	DoCtx(ctx context.Context, ops []shard.Op) ([]shard.Result, error)
}

// Config shapes the workload.
type Config struct {
	// Seed drives every random choice (kinds, addresses, payloads,
	// arrival times). Same seed, same workload.
	Seed int64
	// Events is how many submissions to generate (a batch counts as one
	// event). 0 defaults to 1000.
	Events int
	// Concurrency is the worker count executing events. 0 defaults to 1.
	// Concurrency does not change the generated sequence.
	Concurrency int
	// AddrSpace bounds generated line addresses. 0 defaults to 1<<16.
	AddrSpace uint64
	// ReadWeight/WriteWeight/BatchWeight set the op mix (relative
	// weights; all zero defaults to 3/1/1).
	ReadWeight, WriteWeight, BatchWeight int
	// BatchSize is the op count of a batch event. 0 defaults to 16.
	BatchSize int
	// Rate is the open-loop arrival rate in events/second. 0 means no
	// pacing: workers fire events back to back.
	Rate float64
	// Pace makes RunEvents honor each event's At offset even when Rate
	// is 0 — the knob for replaying a recorded capture (or a composed
	// workload scenario) at its original arrival times. Ignored by Run,
	// whose plans only carry offsets when Rate > 0.
	Pace bool
	// OpTimeout, when non-zero, wraps each event in a deadline.
	OpTimeout time.Duration
	// Prefill writes this many lines (addresses 0..Prefill-1) before the
	// measured run so reads mostly hit written lines. 0 defaults to
	// AddrSpace/2, capped at 1<<16; negative disables prefill.
	Prefill int
	// PrefillPayload, when non-nil, builds the prefill lines instead of
	// the default mixed generator — so a scenario's baseline residency
	// matches its traffic's compressibility (internal/workload sets it).
	PrefillPayload func(addr uint64) []byte
	// Tenants, when non-empty, labels events with tenant identities,
	// dealt round-robin by event index — deterministic, independent of
	// the RNG, and invisible to Checksum (the op stream is identical
	// with or without tenancy). Each event runs under its tenant's
	// context (obs.ContextWithTenant), so a cluster target applies that
	// tenant's admission quota and SLO class, and the report gains a
	// per-tenant breakdown.
	Tenants []string
	// TraceQueueWait attaches a pipeline trace to every event so the
	// report can split event latency into queue wait vs. service time
	// (Report.QueueWait). The harness owns these traces and any
	// in-process engine or cluster records into them; traces do not
	// cross the HTTP boundary, so with an HTTP target the samples are
	// all zero.
	TraceQueueWait bool
}

func (c Config) withDefaults() Config {
	if c.Events == 0 {
		c.Events = 1000
	}
	if c.Concurrency == 0 {
		c.Concurrency = 1
	}
	if c.AddrSpace == 0 {
		c.AddrSpace = 1 << 16
	}
	if c.ReadWeight == 0 && c.WriteWeight == 0 && c.BatchWeight == 0 {
		c.ReadWeight, c.WriteWeight, c.BatchWeight = 3, 1, 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Prefill == 0 {
		c.Prefill = int(min(c.AddrSpace/2, 1<<16))
	}
	return c
}

// Kind labels an event for the per-op-type report buckets.
type Kind uint8

const (
	Read Kind = iota
	Write
	Batch
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled submission.
type Event struct {
	// At is the open-loop arrival offset from the start of the run.
	At time.Duration
	// Kind drives the report bucket; Ops is the payload (1 op for
	// read/write events, BatchSize for batches).
	Kind Kind
	Ops  []shard.Op
	// Tenant, when non-empty, runs the event under that tenant's context
	// and books it to the report's per-tenant bucket. Not part of the
	// Checksum fingerprint: tenancy labels traffic, it does not change it.
	Tenant string
}

// AssignTenants deals tenants onto events round-robin by index, in
// place — the same labeling Plan applies from Config.Tenants, usable on
// composed scenarios and decoded captures too. No-op when tenants is
// empty.
func AssignTenants(events []Event, tenants []string) {
	if len(tenants) == 0 {
		return
	}
	for i := range events {
		events[i].Tenant = tenants[i%len(tenants)]
	}
}

// Plan expands cfg into its deterministic event sequence.
func Plan(cfg Config) []Event {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]Event, cfg.Events)
	wsum := cfg.ReadWeight + cfg.WriteWeight + cfg.BatchWeight
	var clock time.Duration
	for i := range events {
		if cfg.Rate > 0 {
			// Poisson arrivals: exponential inter-arrival gaps.
			gap := -math.Log(1-rng.Float64()) / cfg.Rate
			clock += time.Duration(gap * float64(time.Second))
		}
		ev := Event{At: clock}
		switch w := rng.Intn(wsum); {
		case w < cfg.ReadWeight:
			ev.Kind = Read
			ev.Ops = []shard.Op{{Addr: rng.Uint64() % cfg.AddrSpace}}
		case w < cfg.ReadWeight+cfg.WriteWeight:
			ev.Kind = Write
			addr := rng.Uint64() % cfg.AddrSpace
			ev.Ops = []shard.Op{{Write: true, Addr: addr, Data: Payload(addr, rng.Uint64())}}
		default:
			ev.Kind = Batch
			ev.Ops = make([]shard.Op, cfg.BatchSize)
			for j := range ev.Ops {
				addr := rng.Uint64() % cfg.AddrSpace
				if rng.Intn(4) == 0 {
					ev.Ops[j] = shard.Op{Write: true, Addr: addr, Data: Payload(addr, rng.Uint64())}
				} else {
					ev.Ops[j] = shard.Op{Addr: addr}
				}
			}
		}
		events[i] = ev
	}
	AssignTenants(events, cfg.Tenants)
	return events
}

// Payload builds the default deterministic 64-byte line from an address
// and a version: address parity picks an array-like (compressible) line
// or keyed xorshift noise, so about half the resident lines compress.
func Payload(addr, version uint64) []byte {
	line := make([]byte, core.LineSize)
	if addr%2 == 0 {
		base := addr*4096 + version%512
		for w := 0; w < 8; w++ {
			binary.LittleEndian.PutUint64(line[w*8:], base)
		}
	} else {
		x := addr ^ version | 1
		for w := 0; w < 8; w++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(line[w*8:], x)
		}
	}
	return line
}

// Checksum fingerprints an event sequence: kinds, arrival offsets,
// addresses, directions, and full write payloads all feed the hash.
func Checksum(events []Event) string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ev := range events {
		u64(uint64(ev.Kind))
		u64(uint64(ev.At))
		for _, op := range ev.Ops {
			u64(op.Addr)
			if op.Write {
				u64(1)
				h.Write(op.Data)
			} else {
				u64(0)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Quantiles summarizes one kind's latency samples.
type Quantiles struct {
	Count         uint64        `json:"count"`
	P50, P90, P99 time.Duration `json:"-"`
	Max           time.Duration `json:"-"`
	P50Micros     float64       `json:"p50_us"`
	P90Micros     float64       `json:"p90_us"`
	P99Micros     float64       `json:"p99_us"`
	MaxMicros     float64       `json:"max_us"`
}

// Report is the outcome of a Run.
type Report struct {
	// Checksum fingerprints the op sequence that was offered (computed
	// from the plan, not from completions — identical across
	// concurrency levels by construction).
	Checksum string `json:"checksum"`
	// Events/Ops are offered totals; OpsOK counts ops that succeeded.
	Events int    `json:"events"`
	Ops    uint64 `json:"ops"`
	OpsOK  uint64 `json:"ops_ok"`
	// Duration is wall clock for the measured run; Throughput is
	// completed-ops/second (successes and failures both count — they
	// all cost a round trip).
	Duration   time.Duration `json:"duration_ns"`
	Throughput float64       `json:"ops_per_sec"`
	// ShedRate is sheds / offered ops.
	ShedRate float64 `json:"shed_rate"`
	// Errors is the taxonomy: classified error label -> op count.
	Errors map[string]uint64 `json:"errors"`
	// Latency holds per-kind event-latency quantiles.
	Latency map[string]Quantiles `json:"latency"`
	// QueueWait holds per-kind queue-wait quantiles (time an event's ops
	// waited for their shards' locks).
	// Populated only when Config.TraceQueueWait is set.
	QueueWait map[string]Quantiles `json:"queue_wait,omitempty"`
	// PerTenant breaks offered/succeeded/shed ops down by tenant label.
	// Populated only when events carry tenants (Config.Tenants or
	// AssignTenants).
	PerTenant map[string]TenantReport `json:"per_tenant,omitempty"`
	// Engine is the target's merged counter totals after the run:
	// compressed-line ratio, COPR accuracy, bandwidth savings and RA
	// occupancy, measured. Tiers is its two-tier stats view, when it runs
	// a tiered backend. Both are read from one StatsSnapshot, so they are
	// populated only for in-process targets (shard.Engine).
	Engine *core.StatsSnapshot `json:"engine,omitempty"`
	Tiers  *tier.Snapshot      `json:"tiers,omitempty"`
}

// statsReporter is implemented by in-process targets (shard.Engine).
type statsReporter interface {
	StatsSnapshot() shard.Snapshot
}

// TenantReport is one tenant's slice of a run.
type TenantReport struct {
	Events int               `json:"events"`
	Ops    uint64            `json:"ops"`
	OpsOK  uint64            `json:"ops_ok"`
	Shed   uint64            `json:"shed"`
	Errors map[string]uint64 `json:"errors,omitempty"`
}

// Classify buckets an op error under its label in the shared taxonomy.
// A row matches by errors.Is or, failing that, by its sentinel's message
// appearing in the error's — so the label survives error chains
// flattened to strings (the HTTP client path).
func Classify(err error) string {
	if err == nil {
		return "ok"
	}
	for _, row := range shard.OpErrors {
		if errors.Is(err, row.Sentinel) || strings.Contains(err.Error(), row.Sentinel.Error()) {
			return row.Label
		}
	}
	return "other"
}

// workerTally is one worker's private accounting, merged after the run.
type workerTally struct {
	ops, opsOK uint64
	errs       map[string]uint64
	samples    map[Kind][]time.Duration
	qwait      map[Kind][]time.Duration
	tenants    map[string]*TenantReport
}

// tenant returns the worker's bucket for name, creating it on first use.
func (tl *workerTally) tenant(name string) *TenantReport {
	t := tl.tenants[name]
	if t == nil {
		t = &TenantReport{Errors: make(map[string]uint64)}
		tl.tenants[name] = t
	}
	return t
}

// Run executes the planned sequence against target and reports. The
// offered sequence (and its checksum) depends only on cfg, never on
// concurrency or target behavior.
func Run(ctx context.Context, target Target, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	return RunEvents(ctx, target, cfg, Plan(cfg))
}

// RunEvents executes an explicit event sequence — a composed workload
// scenario or a decoded tracev1 capture — against target, with the same
// prefill, concurrency, reporting, and determinism contract as Run.
// Arrival offsets are honored when cfg.Rate > 0 or cfg.Pace is set;
// otherwise workers fire events back to back.
func RunEvents(ctx context.Context, target Target, cfg Config, events []Event) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Prefill > 0 {
		if err := prefill(ctx, target, cfg); err != nil {
			return Report{}, fmt.Errorf("loadgen: prefill: %w", err)
		}
	}
	paced := cfg.Rate > 0 || cfg.Pace

	var next atomic.Int64
	tallies := make([]workerTally, cfg.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			tl.errs = make(map[string]uint64)
			tl.samples = make(map[Kind][]time.Duration)
			tl.qwait = make(map[Kind][]time.Duration)
			tl.tenants = make(map[string]*TenantReport)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(events) || ctx.Err() != nil {
					return
				}
				ev := events[i]
				if paced {
					// Open loop: fire at the scheduled offset; if we are
					// behind, fire immediately and let latency absorb it.
					if wait := ev.At - time.Since(start); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							return
						}
					}
				}
				ectx, cancel := ctx, context.CancelFunc(func() {})
				if cfg.OpTimeout > 0 {
					ectx, cancel = context.WithTimeout(ctx, cfg.OpTimeout)
				}
				if ev.Tenant != "" {
					ectx = obs.ContextWithTenant(ectx, ev.Tenant)
				}
				var tr *obs.Trace
				if cfg.TraceQueueWait {
					tr = obs.NewTrace(obs.TraceID(uint64(i) + 1))
					ectx = obs.ContextWithTrace(ectx, tr)
				}
				t0 := time.Now()
				res, err := target.DoCtx(ectx, ev.Ops)
				lat := time.Since(t0)
				cancel()
				tl.samples[ev.Kind] = append(tl.samples[ev.Kind], lat)
				if tr != nil {
					qw, _, _ := tr.Decompose()
					tl.qwait[ev.Kind] = append(tl.qwait[ev.Kind], qw)
				}
				tl.ops += uint64(len(ev.Ops))
				var tt *TenantReport
				if ev.Tenant != "" {
					tt = tl.tenant(ev.Tenant)
					tt.Events++
					tt.Ops += uint64(len(ev.Ops))
				}
				if err != nil {
					// Whole-event failure (expired ctx, closed engine):
					// every op in it failed the same way.
					label := Classify(err)
					tl.errs[label] += uint64(len(ev.Ops))
					if tt != nil {
						tt.Errors[label] += uint64(len(ev.Ops))
						if label == "overloaded" {
							tt.Shed += uint64(len(ev.Ops))
						}
					}
					continue
				}
				for _, r := range res {
					if r.Err == nil {
						tl.opsOK++
						if tt != nil {
							tt.OpsOK++
						}
						continue
					}
					label := Classify(r.Err)
					tl.errs[label]++
					if tt != nil {
						tt.Errors[label]++
						if label == "overloaded" {
							tt.Shed++
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		Checksum: Checksum(events),
		Events:   len(events),
		Duration: elapsed,
		Errors:   make(map[string]uint64),
		Latency:  make(map[string]Quantiles),
	}
	samples := make(map[Kind][]time.Duration)
	qwaits := make(map[Kind][]time.Duration)
	for i := range tallies {
		rep.Ops += tallies[i].ops
		rep.OpsOK += tallies[i].opsOK
		for k, v := range tallies[i].errs {
			rep.Errors[k] += v
		}
		for k, s := range tallies[i].samples {
			samples[k] = append(samples[k], s...)
		}
		for k, s := range tallies[i].qwait {
			qwaits[k] = append(qwaits[k], s...)
		}
		for name, t := range tallies[i].tenants {
			if rep.PerTenant == nil {
				rep.PerTenant = make(map[string]TenantReport)
			}
			agg := rep.PerTenant[name]
			agg.Events += t.Events
			agg.Ops += t.Ops
			agg.OpsOK += t.OpsOK
			agg.Shed += t.Shed
			for k, v := range t.Errors {
				if agg.Errors == nil {
					agg.Errors = make(map[string]uint64)
				}
				agg.Errors[k] += v
			}
			rep.PerTenant[name] = agg
		}
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	}
	if rep.Ops > 0 {
		rep.ShedRate = float64(rep.Errors["overloaded"]) / float64(rep.Ops)
	}
	for k, s := range samples {
		rep.Latency[k.String()] = quantiles(s)
	}
	if cfg.TraceQueueWait {
		rep.QueueWait = make(map[string]Quantiles)
		for k, s := range qwaits {
			rep.QueueWait[k.String()] = quantiles(s)
		}
	}
	if sr, ok := target.(statsReporter); ok {
		snap := sr.StatsSnapshot()
		rep.Engine, rep.Tiers = &snap.Total, snap.Tiers
	}
	return rep, nil
}

// prefill writes cfg.Prefill deterministic lines through the target so
// the measured run's reads mostly land on written addresses.
func prefill(ctx context.Context, target Target, cfg Config) error {
	const chunk = 256
	for base := 0; base < cfg.Prefill; base += chunk {
		n := min(uint64(chunk), uint64(cfg.Prefill-base))
		ops := make([]shard.Op, n)
		for i := range ops {
			addr := uint64(base + i)
			data := cfg.PrefillPayload
			if data != nil {
				ops[i] = shard.Op{Write: true, Addr: addr, Data: data(addr)}
			} else {
				ops[i] = shard.Op{Write: true, Addr: addr, Data: Payload(addr, 0)}
			}
		}
		// Plain retry loop: prefill must land even on a lossy target.
		for attempt := 0; ; attempt++ {
			res, err := target.DoCtx(ctx, ops)
			if err != nil {
				return err
			}
			var retry []shard.Op
			var failed error // the first op error of this attempt
			for i, r := range res {
				if r.Err != nil {
					if failed == nil {
						failed = r.Err
					}
					retry = append(retry, ops[i])
				}
			}
			if len(retry) == 0 {
				break
			}
			if attempt > 100 {
				return fmt.Errorf("prefill op kept failing: %w", failed)
			}
			ops = retry
		}
	}
	return nil
}

func quantiles(s []time.Duration) Quantiles {
	if len(s) == 0 {
		return Quantiles{}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	qs := Quantiles{
		Count: uint64(len(s)),
		P50:   stats.Quantile(s, 0.50),
		P90:   stats.Quantile(s, 0.90),
		P99:   stats.Quantile(s, 0.99),
		Max:   s[len(s)-1],
	}
	qs.P50Micros = float64(qs.P50) / float64(time.Microsecond)
	qs.P90Micros = float64(qs.P90) / float64(time.Microsecond)
	qs.P99Micros = float64(qs.P99) / float64(time.Microsecond)
	qs.MaxMicros = float64(qs.Max) / float64(time.Microsecond)
	return qs
}
