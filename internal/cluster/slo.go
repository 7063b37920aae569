package cluster

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"attache/internal/core"
	"attache/internal/stats"
)

// Class is an SLO service class label. Tenants map to classes via
// Config.Classes; unmapped tenants ride in ClassBestEffort.
type Class string

const (
	ClassGold       Class = "gold"
	ClassSilver     Class = "silver"
	ClassBestEffort Class = "best-effort"
)

// classReservoirSize bounds the per-class latency sample buffer. 4096
// samples keeps P99 stable at smoke-test volumes without unbounded
// growth; once full, the reservoir overwrites oldest-first (a sliding
// window, which is what an SLO dashboard wants anyway).
const classReservoirSize = 4096

// ClassSnapshot is one SLO class's latency view in the stats document.
type ClassSnapshot struct {
	Class   Class   `json:"class"`
	Calls   int64   `json:"calls"`
	Ops     int64   `json:"ops"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	P99us   float64 `json:"p99_us"`
	MaxUs   float64 `json:"max_us"`
	Samples int     `json:"samples"`
}

// TenantSnapshot is one tenant's accounting in the stats document.
// ShedQuota counts ops refused by admission control (HTTP 429);
// ShedBackend counts ops the engine itself shed under queue pressure.
type TenantSnapshot struct {
	Tenant      string `json:"tenant" prom:"tenant,label"`
	Class       Class  `json:"class" prom:"class,label"`
	Ops         int64  `json:"ops" prom:"attached_tenant_ops_total,counter" help:"Ops submitted, per tenant (including shed ops)."`
	OK          int64  `json:"ok"`
	ShedQuota   int64  `json:"shed_quota" prom:"attached_tenant_shed_quota_total,counter" help:"Ops refused by per-tenant admission control."`
	ShedBackend int64  `json:"shed_backend"`
	Errors      int64  `json:"errors"`
}

// classStats is one class's live accumulator.
type classStats struct {
	calls int64
	ops   int64
	lat   []float64 // µs, ring once full
	next  int       // ring cursor
}

// sloBook tracks per-class latency reservoirs and per-tenant counters;
// a tenant's live accumulator is its snapshot.
type sloBook struct {
	mu      sync.Mutex
	classes map[Class]*classStats
	tenants map[string]*TenantSnapshot
	classOf map[string]Class
}

func newSLOBook(classOf map[string]Class) *sloBook {
	return &sloBook{
		classes: make(map[Class]*classStats),
		tenants: make(map[string]*TenantSnapshot),
		classOf: maps.Clone(classOf),
	}
}

// A tenant name is outside input (the X-Attache-Tenant header) that
// /metrics prints as a label. enroll books it, or refuses a name over
// maxTenantName bytes, one that is not UTF-8 or holds a control
// character, or a new one once maxTenants are booked — unless it is
// reserved: untenanted traffic ("") and tenants with an explicit quota
// always book.
const maxTenantName, maxTenants = 64, 1024

func (b *sloBook) enroll(tenant string, reserved bool) error {
	if len(tenant) > maxTenantName {
		return fmt.Errorf("cluster: tenant name of %d bytes exceeds %d: %w", len(tenant), maxTenantName, core.ErrOutOfRange)
	}
	if !utf8.ValidString(tenant) || strings.ContainsFunc(tenant, unicode.IsControl) {
		return fmt.Errorf("cluster: tenant name %q holds invalid UTF-8 or a control character: %w", tenant, core.ErrOutOfRange)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.tenants[tenant]; !ok && !reserved && len(b.tenants) >= maxTenants {
		return fmt.Errorf("cluster: tenant table full (%d tenants): %w", maxTenants, core.ErrOutOfRange)
	}
	b.tenant(tenant)
	return nil
}

func (b *sloBook) tenant(tenant string) *TenantSnapshot {
	t := b.tenants[tenant]
	if t == nil {
		t = &TenantSnapshot{Tenant: tenant, Class: ClassBestEffort}
		if c, ok := b.classOf[tenant]; ok {
			t.Class = c
		}
		b.tenants[tenant] = t
	}
	return t
}

// recordRefused books a batch admission control turned away: a quota
// shed the tenant may retry, or — the batch exceeds its whole burst — an
// error it may not.
func (b *sloBook) recordRefused(tenant string, ops int, why error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tenant(tenant)
	t.Ops += int64(ops)
	if errors.Is(why, core.ErrOverloaded) {
		t.ShedQuota += int64(ops)
	} else {
		t.Errors += int64(ops)
	}
}

// record books one executed batch: latency into the tenant's class
// reservoir, per-op outcomes into the tenant counters. Refusals are
// booked separately — their latency is a refusal, not service time.
func (b *sloBook) record(tenant string, lat time.Duration, ops, ok, shedBackend, errs int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tenant(tenant)
	t.Ops += int64(ops)
	t.OK += int64(ok)
	t.ShedBackend += int64(shedBackend)
	t.Errors += int64(errs)

	cl := t.Class
	c := b.classes[cl]
	if c == nil {
		c = &classStats{}
		b.classes[cl] = c
	}
	c.calls++
	c.ops += int64(ops)
	us := float64(lat.Nanoseconds()) / 1e3
	if len(c.lat) < classReservoirSize {
		c.lat = append(c.lat, us)
	} else {
		c.lat[c.next] = us
		c.next = (c.next + 1) % classReservoirSize
	}
}

// ClassSnapshots returns per-class quantiles, sorted gold → silver →
// best-effort → others alphabetically, so the JSON is stable.
func (b *sloBook) ClassSnapshots() []ClassSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ClassSnapshot, 0, len(b.classes))
	for cl, c := range b.classes {
		s := ClassSnapshot{Class: cl, Calls: c.calls, Ops: c.ops, Samples: len(c.lat)}
		if len(c.lat) > 0 {
			sorted := append([]float64(nil), c.lat...)
			sort.Float64s(sorted)
			s.P50us = stats.Quantile(sorted, 0.50)
			s.P90us = stats.Quantile(sorted, 0.90)
			s.P99us = stats.Quantile(sorted, 0.99)
			s.MaxUs = sorted[len(sorted)-1]
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return classRank(out[i].Class) < classRank(out[j].Class) })
	return out
}

func classRank(c Class) string {
	switch c {
	case ClassGold:
		return "0"
	case ClassSilver:
		return "1"
	case ClassBestEffort:
		return "2"
	}
	return "3" + string(c)
}

// TenantSnapshots returns per-tenant counters sorted by tenant name.
func (b *sloBook) TenantSnapshots() []TenantSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(b.tenants))
	for _, t := range b.tenants {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// JainFairness computes Jain's index J = (Σx)² / (n·Σx²) over
// per-tenant successful throughput: 1.0 means perfectly even service,
// 1/n means one tenant got everything. Returns 1 when fewer than two
// tenants have been seen — a single stream is trivially fair.
func (b *sloBook) JainFairness() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sum, sumSq float64
	n := len(b.tenants)
	for _, t := range b.tenants {
		x := float64(t.OK)
		sum += x
		sumSq += x * x
	}
	if n < 2 || sumSq == 0 {
		return 1
	}
	return (sum * sum) / (float64(n) * sumSq)
}
