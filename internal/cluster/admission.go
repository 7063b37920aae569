package cluster

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"attache/internal/core"
)

// Quota is a per-tenant token-bucket admission limit. Rate is the
// sustained ops/sec refill; Burst is the bucket capacity (defaults to
// Rate when zero, so a tenant can always spend one second of quota at
// once). A zero-value Quota means unlimited.
type Quota struct {
	Rate  float64 // ops per second; 0 = unlimited
	Burst float64 // bucket capacity in ops; 0 = Rate
}

// unlimited reports whether this quota admits everything.
func (q Quota) unlimited() bool { return q.Rate <= 0 }

func (q Quota) capacity() float64 {
	if q.Burst > 0 {
		return q.Burst
	}
	return q.Rate
}

// bucket is one tenant's token bucket. Guarded by admitter.mu.
type bucket struct {
	quota  Quota
	tokens float64
	last   time.Time
}

// admitter applies per-tenant token-bucket admission control. Tenants
// with an explicit quota use it; everyone else shares the default quota
// shape (each unknown tenant gets its OWN bucket of that shape — the
// default is a per-tenant ceiling, not a shared pool). The clock is
// injectable so tests drive time deterministically.
type admitter struct {
	mu       sync.Mutex
	quotas   map[string]Quota
	fallback Quota
	buckets  map[string]*bucket
	now      func() time.Time
}

func newAdmitter(quotas map[string]Quota, fallback Quota, now func() time.Time) *admitter {
	if now == nil {
		now = time.Now
	}
	return &admitter{
		quotas:   maps.Clone(quotas),
		fallback: fallback,
		buckets:  make(map[string]*bucket),
		now:      now,
	}
}

// admit asks to spend n ops of tenant's quota. It is all-or-nothing: a
// batch either fits in the bucket or is shed whole (partial admission
// would break in-batch read-your-write ordering). Unlimited tenants
// never touch a bucket. A refusal wraps core.ErrOverloaded when waiting
// for the bucket to refill would admit the batch, and core.ErrOutOfRange
// when the batch is larger than the bucket can ever hold; neither spends
// a token.
func (a *admitter) admit(tenant string, n int) error {
	q, ok := a.quotas[tenant]
	if !ok {
		q = a.fallback
	}
	if q.unlimited() {
		return nil
	}
	if burst := q.capacity(); float64(n) > burst {
		return fmt.Errorf("cluster: batch of %d ops exceeds tenant %q's burst of %g: %w", n, tenant, burst, core.ErrOutOfRange)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[tenant]
	t := a.now()
	if b == nil {
		b = &bucket{quota: q, tokens: q.capacity(), last: t}
		a.buckets[tenant] = b
	}
	if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.quota.Rate
		if cap := b.quota.capacity(); b.tokens > cap {
			b.tokens = cap
		}
		b.last = t
	}
	if b.tokens < float64(n) {
		return fmt.Errorf("cluster: tenant %q over quota: %w", tenant, core.ErrOverloaded)
	}
	b.tokens -= float64(n)
	return nil
}
