package cluster

import (
	"errors"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
)

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RoundRobin, 0); !errors.Is(err, core.ErrOutOfRange) {
		t.Fatalf("0 instances: err = %v, want ErrOutOfRange", err)
	}
	if _, err := NewRouter(Passthrough, 2); !errors.Is(err, core.ErrOutOfRange) {
		t.Fatalf("passthrough over 2 instances: err = %v, want ErrOutOfRange", err)
	}
	if _, err := NewRouter("weighted", 2); err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, p := range []string{Passthrough, RoundRobin, LeastLoaded, Affinity} {
		n := 3
		if p == Passthrough {
			n = 1
		}
		r, err := NewRouter(p, n)
		if err != nil {
			t.Fatalf("NewRouter(%s, %d): %v", p, n, err)
		}
		if r.Name() != p {
			t.Fatalf("router %s reports name %s", p, r.Name())
		}
	}
}

func TestRoundRobinCyclesWholeBatches(t *testing.T) {
	r, _ := NewRouter(RoundRobin, 3)
	counts := make([]int, 3)
	for batch := 0; batch < 9; batch++ {
		ops := make([]shard.Op, 4)
		assign := make([]int, len(ops))
		r.Route(ops, []int64{0, 0, 0}, assign)
		for _, a := range assign[1:] {
			if a != assign[0] {
				t.Fatalf("round-robin split a batch: %v", assign)
			}
		}
		counts[assign[0]]++
	}
	for i, c := range counts {
		if c != 3 {
			t.Fatalf("instance %d served %d of 9 batches, want 3 (counts %v)", i, c, counts)
		}
	}
}

func TestLeastLoadedPicksIdleInstance(t *testing.T) {
	r, _ := NewRouter(LeastLoaded, 3)
	ops := make([]shard.Op, 2)
	assign := make([]int, len(ops))

	r.Route(ops, []int64{5, 0, 9}, assign)
	if assign[0] != 1 {
		t.Fatalf("loads [5 0 9] routed to %d, want 1", assign[0])
	}
	// Tie on inflight: the instance with fewer cumulatively routed ops
	// wins, so an idle cluster still spreads rather than piling on 0.
	r.Route(ops, []int64{0, 0, 0}, assign)
	if assign[0] == 1 {
		t.Fatalf("tie-break re-picked the instance that just got a batch")
	}
}

func TestAffinityPinsPagesAndSpreadsThem(t *testing.T) {
	const n = 4
	r := NewAffinityRouter(n, DefaultAffinityPrefixBits).(affinityRouter)

	// Every line of one page lands on the same instance.
	page := uint64(0x1234) << DefaultAffinityPrefixBits
	want := r.instanceFor(page)
	for off := uint64(0); off < 1<<DefaultAffinityPrefixBits; off++ {
		if got := r.instanceFor(page + off); got != want {
			t.Fatalf("page split: addr %#x -> %d, addr %#x -> %d", page, want, page+off, got)
		}
	}

	// Across many pages the mapping is roughly uniform: with 4096 pages
	// over 4 instances, expect ~1024 each; allow ±25%.
	counts := make([]int, n)
	for p := uint64(0); p < 4096; p++ {
		counts[r.instanceFor(p<<DefaultAffinityPrefixBits)]++
	}
	for i, c := range counts {
		if c < 768 || c > 1280 {
			t.Fatalf("instance %d got %d of 4096 pages (counts %v), want ~1024", i, c, counts)
		}
	}
}
