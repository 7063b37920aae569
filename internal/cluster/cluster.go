// Package cluster fronts N shard.Engine instances with address
// placement, per-tenant token-bucket admission control, and SLO-class
// accounting — the scale-out layer between the HTTP daemon and the
// engines.
//
// Layering: serve → cluster → shard.Engine → core.Memory. The cluster
// is deliberately thin on the data path: place, forward, account. Every
// address lives on exactly one instance (instanceFor), so a read always
// reaches the instance that took the write. A 1-instance cluster
// forwards each batch verbatim to its engine, so it is bit-identical to
// calling the engine directly (the same pinning discipline
// TestSingleShardMatchesMemory applies one layer down).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/stats"
	"attache/internal/tier"
)

// Config shapes a cluster around its engines.
type Config struct {
	// Quotas maps tenant → admission quota. Tenants absent from the map
	// use DefaultQuota.
	Quotas map[string]Quota
	// DefaultQuota applies per-tenant to every tenant without an explicit
	// quota (each gets its own bucket of this shape). Zero = unlimited.
	DefaultQuota Quota
	// Classes maps tenant → SLO class; unmapped tenants are best-effort.
	Classes map[string]Class
	// Now is the admission clock; nil means time.Now. Injectable so
	// quota tests drive time deterministically.
	Now func() time.Time
}

// Cluster owns N engines and places every address on one of them. Safe
// for concurrent use.
type Cluster struct {
	engines []*shard.Engine
	adm     *admitter
	slo     *sloBook
}

// pagePrefixBits is how many low address bits placement ignores: 6 bits
// groups 64 lines (one 4 KB page of 64-byte lines) onto the same
// instance, so a hot page trains exactly one instance's COPR predictor
// instead of smearing its history across all of them.
const pagePrefixBits = 6

// instanceFor places addr on one of n instances: the page prefix
// (addr >> pagePrefixBits) mixed through the splitmix64 finalizer and
// Lemire-reduced to [0, n) — the same unbiased mapping the engine's
// shardFor uses, over page prefixes instead of line addresses. It is the
// cluster's only placement: a function of the address alone, so every
// address has exactly one home and needs no directory. With n = 1 it is
// always 0.
func instanceFor(addr uint64, n int) int {
	hi, _ := bits.Mul64(stats.SplitMix64(addr>>pagePrefixBits), uint64(n))
	return int(hi)
}

// InstanceSeed derives instance i's engine seed from a base seed.
// Instance 0 keeps the base exactly — a 1-instance cluster must build
// the same engine a direct shard.New would — and later instances mix in
// their index with a distinct odd constant (NOT the engine's per-shard
// constant, so instance 1's shard 0 never collides with instance 0's
// shard 1).
func InstanceSeed(base int64, i int) int64 {
	return base ^ int64(uint64(i)*0xD1B54A32D192ED03)
}

// New builds instances engines, each of shardCfg shards configured from
// opts with InstanceSeed-derived seeds, behind one cluster.
func New(opts core.Options, shardCfg shard.Config, instances int, cfg Config) (*Cluster, error) {
	if instances < 1 {
		return nil, fmt.Errorf("cluster: instance count %d not in [1,∞): %w", instances, core.ErrOutOfRange)
	}
	engines := make([]*shard.Engine, instances)
	for i := range engines {
		o := opts
		o.Seed = InstanceSeed(opts.Seed, i)
		eng, err := shard.New(o, shardCfg)
		if err != nil {
			for _, e := range engines[:i] {
				e.Close()
			}
			return nil, err
		}
		engines[i] = eng
	}
	return Wrap(engines, cfg)
}

// Wrap fronts existing engines with a cluster. The cluster takes
// ownership: Close closes every engine.
func Wrap(engines []*shard.Engine, cfg Config) (*Cluster, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("cluster: need at least one engine: %w", core.ErrOutOfRange)
	}
	return &Cluster{
		engines: engines,
		adm:     newAdmitter(cfg.Quotas, cfg.DefaultQuota, cfg.Now),
		slo:     newSLOBook(cfg.Classes),
	}, nil
}

// Instances reports the engine count.
func (c *Cluster) Instances() int { return len(c.engines) }

// Shards reports the total shard count across instances.
func (c *Cluster) Shards() int {
	n := 0
	for _, e := range c.engines {
		n += e.Shards()
	}
	return n
}

// DoCtx places a batch on its instance(s) and blocks until every op
// completes, with shard.Engine.DoCtx's deadline/shed semantics per
// instance: a ctx that is already done returns (nil, ctx.Err()) before
// admission, so a request that never runs spends no quota. The context's
// tenant (obs.ContextWithTenant) selects the admission quota and SLO
// class; an over-quota batch is refused whole — every op fails with
// core.ErrOverloaded and nothing reaches an engine, so callers see the
// same sentinel (and servers the same 429) as an engine-level shed. A
// batch larger than the tenant's whole burst can never be admitted and
// fails with core.ErrOutOfRange instead: retrying it is pointless. The
// call itself fails with it when the tenant cannot be booked (enroll).
func (c *Cluster) DoCtx(ctx context.Context, ops []shard.Op) ([]shard.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		// Nothing to admit, place or record: the answer is an engine's.
		return c.engines[0].DoCtx(ctx, ops)
	}
	tenant := obs.TenantFromContext(ctx)
	_, quoted := c.adm.quotas[tenant]
	if err := c.slo.enroll(tenant, quoted || tenant == ""); err != nil {
		return nil, err
	}
	if err := c.adm.admit(tenant, len(ops)); err != nil {
		c.slo.recordRefused(tenant, len(ops), err)
		res := make([]shard.Result, len(ops))
		for i := range res {
			res[i].Err = err
		}
		return res, nil
	}

	start := time.Now()
	res, err := c.dispatch(ctx, ops)
	c.record(tenant, len(ops), time.Since(start), res, err)
	return res, err
}

// dispatch executes the batch where its addresses live. A batch whose
// ops all live on one instance — every batch of a 1-instance cluster —
// goes to it as the caller's ops slice verbatim, which is what makes the
// 1-instance cluster bit-identical to a bare engine. Split batches
// regroup per instance, run concurrently, and scatter results back into
// submission order; ops on one address share an instance, so their
// in-batch order holds.
func (c *Cluster) dispatch(ctx context.Context, ops []shard.Op) ([]shard.Result, error) {
	n := len(c.engines)
	home := instanceFor(ops[0].Addr, n)
	single := true
	for _, op := range ops[1:] {
		if instanceFor(op.Addr, n) != home {
			single = false
			break
		}
	}
	if single {
		return c.engines[home].DoCtx(ctx, ops)
	}

	groups := make([][]int, n)
	for i, op := range ops {
		k := instanceFor(op.Addr, n)
		groups[k] = append(groups[k], i)
	}
	res := make([]shard.Result, len(ops))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		failed   int
		used     int
	)
	for inst, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		used++
		wg.Add(1)
		go func(inst int, idx []int) {
			defer wg.Done()
			sub := make([]shard.Op, len(idx))
			for j, k := range idx {
				sub[j] = ops[k]
			}
			out, err := c.engines[inst].DoCtx(ctx, sub)
			if err != nil {
				// Call-level failure (cancelled context, closed engine):
				// every op in this group reports it.
				for _, k := range idx {
					res[k].Err = err
				}
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				failed++
				errMu.Unlock()
				return
			}
			for j, k := range idx {
				res[k] = out[j]
			}
		}(inst, idx)
	}
	wg.Wait()
	if failed == used {
		return nil, firstErr
	}
	return res, nil
}

// record books the SLO outcome of one executed batch of n ops.
func (c *Cluster) record(tenant string, n int, lat time.Duration, res []shard.Result, err error) {
	if err != nil {
		c.slo.record(tenant, lat, n, 0, 0, n)
		return
	}
	ok, shed, errs := 0, 0, 0
	for i := range res {
		switch {
		case res[i].Err == nil:
			ok++
		case errors.Is(res[i].Err, core.ErrOverloaded):
			shed++
		default:
			errs++
		}
	}
	c.slo.record(tenant, lat, n, ok, shed, errs)
}

// EngineSnapshot merges every instance into one shard.Snapshot.
func (c *Cluster) EngineSnapshot() shard.Snapshot { return Merge(c.PerInstanceSnapshots()) }

// Merge folds per-instance snapshots into one: PerShard concatenates
// instance shards in order, totals and robust counters sum, so a
// 1-instance cluster's merged snapshot is exactly its engine's. A caller
// that keeps per as well gets totals that are the sum of its instances.
func Merge(per []shard.Snapshot) shard.Snapshot {
	if len(per) == 1 {
		return per[0]
	}
	var merged shard.Snapshot
	for _, s := range per {
		merged.PerShard = append(merged.PerShard, s.PerShard...)
		merged.SRAMBytes += s.SRAMBytes
		stats.Add(&merged.Robust, s.Robust)
		if s.Tiers != nil {
			if merged.Tiers == nil {
				merged.Tiers = &tier.Snapshot{}
			}
			merged.Tiers.Accumulate(*s.Tiers)
		}
	}
	for _, s := range merged.PerShard {
		merged.Total.Accumulate(s)
	}
	return merged
}

// PerInstanceSnapshots returns each instance's own snapshot, index i
// for instance i — the per_instance section of stats v2.
func (c *Cluster) PerInstanceSnapshots() []shard.Snapshot {
	out := make([]shard.Snapshot, len(c.engines))
	for i, e := range c.engines {
		out[i] = e.StatsSnapshot()
	}
	return out
}

// Gauges flattens every instance's shard gauges into one slice with
// globally unique shard indices (instance i's shard j appears as shard
// base+j, where base is the shard count of instances before i).
func (c *Cluster) Gauges() []obs.ShardGauge {
	var out []obs.ShardGauge
	base := 0
	for _, e := range c.engines {
		for _, g := range e.Gauges() {
			g.Shard += base
			out = append(out, g)
		}
		base += e.Shards()
	}
	return out
}

// ClassSnapshots reports per-SLO-class latency quantiles.
func (c *Cluster) ClassSnapshots() []ClassSnapshot { return c.slo.ClassSnapshots() }

// TenantSnapshots reports per-tenant op accounting.
func (c *Cluster) TenantSnapshots() []TenantSnapshot { return c.slo.TenantSnapshots() }

// JainFairness reports Jain's fairness index over per-tenant successful
// throughput (1.0 = perfectly even; 1/n = one tenant got everything).
func (c *Cluster) JainFairness() float64 { return c.slo.JainFairness() }

// Close closes every engine, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, e := range c.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
