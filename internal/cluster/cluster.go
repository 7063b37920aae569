// Package cluster fronts one shard.Engine with per-tenant token-bucket
// admission control and SLO-class accounting — the tenancy layer between
// the HTTP daemon and the engine.
//
// Layering: serve → cluster → shard.Engine → core.Memory. The cluster is
// deliberately thin on the data path: admit, forward, account. Placement
// is the engine's alone (each address has one shard, shardFor), and an
// admitted batch goes to the engine as the caller's ops slice verbatim,
// so a cluster is bit-identical to calling the engine directly (the same
// pinning discipline TestSingleShardMatchesMemory applies one layer
// down).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
)

// Config shapes a cluster around its engine.
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

// Cluster fronts one engine with admission and SLO books. Safe for
// concurrent use.
type Cluster struct {
	eng *shard.Engine
	adm *admitter
	slo *sloBook
}

// New builds an engine of shardCfg shards configured from opts behind a
// cluster.
func New(opts core.Options, shardCfg shard.Config, cfg Config) (*Cluster, error) {
	eng, err := shard.New(opts, shardCfg)
	if err != nil {
		return nil, err
	}
	return Wrap([]*shard.Engine{eng}, cfg)
}

// Wrap fronts an existing engine with a cluster. It takes a slice, and
// refuses any but a one-engine one: a cluster is one engine, whose
// shards place every address. The cluster takes ownership of the engine:
// Close closes it. A refused slice stays the caller's.
func Wrap(engines []*shard.Engine, cfg Config) (*Cluster, error) {
	if len(engines) != 1 {
		return nil, fmt.Errorf("cluster: fronts exactly one engine, got %d: %w", len(engines), core.ErrOutOfRange)
	}
	return &Cluster{
		eng: engines[0],
		adm: newAdmitter(cfg.Quotas, cfg.DefaultQuota, cfg.Now),
		slo: newSLOBook(cfg.Classes),
	}, nil
}

// Shards reports the engine's shard count.
func (c *Cluster) Shards() int { return c.eng.Shards() }

// DoCtx admits a batch, runs it on the engine and blocks until every op
// completes, with shard.Engine.DoCtx's deadline/shed semantics: a ctx
// that is already done returns (nil, ctx.Err()) before admission, so a
// request that never runs spends no quota. The context's tenant
// (obs.ContextWithTenant) selects the admission quota and SLO class; an
// over-quota batch is refused whole — every op fails with
// core.ErrOverloaded and nothing reaches the engine, so callers see the
// same sentinel (and servers the same 429) as an engine-level shed. A
// batch larger than the tenant's whole burst can never be admitted and
// fails with core.ErrOutOfRange instead: retrying it is pointless. The
// call itself fails with it when the tenant cannot be booked (enroll).
func (c *Cluster) DoCtx(ctx context.Context, ops []shard.Op) ([]shard.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		// Nothing to admit or record: the answer is the engine's.
		return c.eng.DoCtx(ctx, ops)
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
	res, err := c.eng.DoCtx(ctx, ops)
	c.record(tenant, len(ops), time.Since(start), res, err)
	return res, err
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

// EngineSnapshot reports the engine's stats snapshot.
func (c *Cluster) EngineSnapshot() shard.Snapshot { return c.eng.StatsSnapshot() }

// Gauges reads the engine's live per-shard queue gauges.
func (c *Cluster) Gauges() []obs.ShardGauge { return c.eng.Gauges() }

// ClassSnapshots reports per-SLO-class latency quantiles.
func (c *Cluster) ClassSnapshots() []ClassSnapshot { return c.slo.ClassSnapshots() }

// TenantSnapshots reports per-tenant op accounting.
func (c *Cluster) TenantSnapshots() []TenantSnapshot { return c.slo.TenantSnapshots() }

// JainFairness reports Jain's fairness index over per-tenant successful
// throughput (1.0 = perfectly even; 1/n = one tenant got everything).
func (c *Cluster) JainFairness() float64 { return c.slo.JainFairness() }

// Close closes the engine.
func (c *Cluster) Close() error { return c.eng.Close() }
