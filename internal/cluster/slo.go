package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

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

// ClassSnapshot is one SLO class's latency view in stats v2.
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

// TenantSnapshot is one tenant's accounting in stats v2. ShedQuota
// counts ops refused by admission control (HTTP 429); ShedBackend
// counts ops the engine itself shed under queue pressure.
type TenantSnapshot struct {
	Tenant      string `json:"tenant"`
	Class       Class  `json:"class"`
	Ops         int64  `json:"ops"`
	OK          int64  `json:"ok"`
	ShedQuota   int64  `json:"shed_quota"`
	ShedBackend int64  `json:"shed_backend"`
	Errors      int64  `json:"errors"`
}

// classStats is one class's live accumulator.
type classStats struct {
	calls   int64
	ops     int64
	lat     []float64 // µs, ring once full
	next    int       // ring cursor
	wrapped bool
}

// tenantStats is one tenant's live accumulator.
type tenantStats struct {
	class       Class
	ops         int64
	ok          int64
	shedQuota   int64
	shedBackend int64
	errors      int64
}

// sloBook tracks per-class latency reservoirs and per-tenant counters.
type sloBook struct {
	mu      sync.Mutex
	classes map[Class]*classStats
	tenants map[string]*tenantStats
	classOf map[string]Class
}

func newSLOBook(classOf map[string]Class) *sloBook {
	c := make(map[string]Class, len(classOf))
	for k, v := range classOf {
		c[k] = v
	}
	return &sloBook{
		classes: make(map[Class]*classStats),
		tenants: make(map[string]*tenantStats),
		classOf: c,
	}
}

func (b *sloBook) classFor(tenant string) Class {
	if c, ok := b.classOf[tenant]; ok {
		return c
	}
	return ClassBestEffort
}

// A tenant name is outside input (the X-Attache-Tenant header). enroll
// books it, or refuses a name over maxTenantName bytes, or a new one once
// maxTenants are booked — unless it is reserved: untenanted traffic ("")
// and tenants with an explicit quota always book.
const maxTenantName, maxTenants = 64, 1024

func (b *sloBook) enroll(tenant string, reserved bool) error {
	if len(tenant) > maxTenantName {
		return fmt.Errorf("cluster: tenant name of %d bytes exceeds %d: %w", len(tenant), maxTenantName, core.ErrOutOfRange)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.tenants[tenant]; !ok && !reserved && len(b.tenants) >= maxTenants {
		return fmt.Errorf("cluster: tenant table full (%d tenants): %w", maxTenants, core.ErrOutOfRange)
	}
	b.tenant(tenant)
	return nil
}

func (b *sloBook) tenant(tenant string) *tenantStats {
	t := b.tenants[tenant]
	if t == nil {
		t = &tenantStats{class: b.classFor(tenant)}
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
	t.ops += int64(ops)
	if errors.Is(why, core.ErrOverloaded) {
		t.shedQuota += int64(ops)
	} else {
		t.errors += int64(ops)
	}
}

// record books one executed batch: latency into the tenant's class
// reservoir, per-op outcomes into the tenant counters. Refusals are
// booked separately — their latency is a refusal, not service time.
func (b *sloBook) record(tenant string, lat time.Duration, ops, ok, shedBackend, errs int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tenant(tenant)
	t.ops += int64(ops)
	t.ok += int64(ok)
	t.shedBackend += int64(shedBackend)
	t.errors += int64(errs)

	cl := t.class
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
		c.wrapped = true
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
	for name, t := range b.tenants {
		out = append(out, TenantSnapshot{
			Tenant:      name,
			Class:       t.class,
			Ops:         t.ops,
			OK:          t.ok,
			ShedQuota:   t.shedQuota,
			ShedBackend: t.shedBackend,
			Errors:      t.errors,
		})
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
	n := 0
	for _, t := range b.tenants {
		x := float64(t.ok)
		sum += x
		sumSq += x * x
		n++
	}
	if n < 2 || sumSq == 0 {
		return 1
	}
	return (sum * sum) / (float64(n) * sumSq)
}
