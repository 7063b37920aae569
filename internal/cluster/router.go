package cluster

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/stats"
)

// Router assigns each op in a batch to an instance. Implementations must
// be safe for concurrent use; any state they keep (round-robin cursors,
// cumulative load tallies) is their own. Route fills assign[i] with the
// instance index for ops[i]; loads[i] is instance i's in-flight task
// count at decision time, the live signal load-aware policies key off.
//
// Routing is deliberately a pure placement decision — no admission, no
// retries — so a recorded decision (Cluster.Decisions) says all of it.
type Router interface {
	Name() string
	Route(ops []shard.Op, loads []int64, assign []int)
}

// Policies accepted by NewRouter (and the attached -router flag).
const (
	Passthrough = "passthrough"
	RoundRobin  = "round-robin"
	LeastLoaded = "least-loaded"
	Affinity    = "affinity"
)

// DefaultAffinityPrefixBits is how many low address bits the affinity
// router ignores: 6 bits groups 64 lines (one 4 KB page of 64-byte
// lines) onto the same instance, so a hot page trains exactly one
// instance's COPR predictor instead of smearing its history across all
// of them.
const DefaultAffinityPrefixBits = 6

// NewRouter builds a named routing policy for an n-instance cluster.
func NewRouter(policy string, n int) (Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: instance count %d not in [1,∞): %w", n, core.ErrOutOfRange)
	}
	switch policy {
	case Passthrough:
		if n != 1 {
			return nil, fmt.Errorf("cluster: passthrough router requires exactly 1 instance, got %d: %w", n, core.ErrOutOfRange)
		}
		return passthroughRouter{}, nil
	case RoundRobin:
		return &roundRobinRouter{n: n}, nil
	case LeastLoaded:
		return &leastLoadedRouter{routed: make([]int64, n)}, nil
	case Affinity:
		return NewAffinityRouter(n, DefaultAffinityPrefixBits), nil
	}
	return nil, fmt.Errorf("cluster: unknown router policy %q (want %s, %s, %s, or %s)",
		policy, Passthrough, RoundRobin, LeastLoaded, Affinity)
}

// passthroughRouter sends everything to instance 0 — the 1-instance
// configuration that must be bit-identical to a bare engine.
type passthroughRouter struct{}

func (passthroughRouter) Name() string { return Passthrough }

func (passthroughRouter) Route(ops []shard.Op, loads []int64, assign []int) {
	for i := range assign {
		assign[i] = 0
	}
}

// roundRobinRouter cycles whole batches across instances: one atomic
// add per decision, no load signal. Batches stay intact so in-batch
// read-your-write ordering holds.
type roundRobinRouter struct {
	n   int
	ctr atomic.Uint64
}

func (r *roundRobinRouter) Name() string { return RoundRobin }

func (r *roundRobinRouter) Route(ops []shard.Op, loads []int64, assign []int) {
	k := int((r.ctr.Add(1) - 1) % uint64(r.n))
	for i := range assign {
		assign[i] = k
	}
}

// leastLoadedPenalty converts one in-flight task into equivalent
// already-routed ops when scoring instances. An in-flight task is a
// whole batch, so weigh it like a typical batch — enough that an idle
// peer wins over a busy one when cumulative counts are close, without
// letting the live signal veto an instance that is far behind on work.
const leastLoadedPenalty = 32

// leastLoadedRouter sends each whole batch to the instance with the
// lowest load score: cumulative ops routed plus a per-in-flight-task
// penalty (ties: lowest index). The cumulative term makes this a greedy
// balancer — max/min ops per instance stays within one batch plus the
// penalty — while the inflight term steers new arrivals away from an
// instance that is momentarily busy. A pure inflight argmin would veto
// any busy instance outright, which under mixed batch sizes starves the
// instance serving large batches and funnels every burst to it.
type leastLoadedRouter struct {
	mu     sync.Mutex
	routed []int64 // cumulative ops assigned per instance
}

func (r *leastLoadedRouter) Name() string { return LeastLoaded }

func (r *leastLoadedRouter) Route(ops []shard.Op, loads []int64, assign []int) {
	r.mu.Lock()
	pick, best := 0, int64(0)
	for i := range r.routed {
		score := r.routed[i]
		if i < len(loads) {
			score += leastLoadedPenalty * loads[i]
		}
		if i == 0 || score < best {
			pick, best = i, score
		}
	}
	r.routed[pick] += int64(len(ops))
	r.mu.Unlock()
	for i := range assign {
		assign[i] = pick
	}
}

// affinityRouter pins address prefixes to instances: every op whose
// address shares the same high bits (addr >> prefixBits) always lands on
// the same instance, so a hot page's access stream trains one COPR
// predictor and keeps its locality — the property the zipfian-hot-page
// router test pins. Batches are split per op; the cluster regroups them.
type affinityRouter struct {
	n          uint64
	prefixBits uint
}

// NewAffinityRouter builds an affinity router that ignores the low
// prefixBits address bits when choosing an instance.
func NewAffinityRouter(n int, prefixBits uint) Router {
	return affinityRouter{n: uint64(n), prefixBits: prefixBits}
}

func (r affinityRouter) Name() string { return Affinity }

func (r affinityRouter) Route(ops []shard.Op, loads []int64, assign []int) {
	for i, op := range ops {
		assign[i] = r.instanceFor(op.Addr)
	}
}

// instanceFor mixes the address prefix through the splitmix64 finalizer
// and Lemire-reduces it to [0, n) — the same unbiased mapping the
// engine's shardFor uses, over page prefixes instead of line addresses.
func (r affinityRouter) instanceFor(addr uint64) int {
	hi, _ := bits.Mul64(stats.SplitMix64(addr>>r.prefixBits), r.n)
	return int(hi)
}
