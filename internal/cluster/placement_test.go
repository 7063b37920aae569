package cluster

import "testing"

func TestAffinityPinsPagesAndSpreadsThem(t *testing.T) {
	const n = 4

	// Every line of one page lands on the same instance.
	page := uint64(0x1234) << pagePrefixBits
	want := instanceFor(page, n)
	for off := uint64(0); off < 1<<pagePrefixBits; off++ {
		if got := instanceFor(page+off, n); got != want {
			t.Fatalf("page split: addr %#x -> %d, addr %#x -> %d", page, want, page+off, got)
		}
	}

	// Across many pages the mapping is roughly uniform: with 4096 pages
	// over 4 instances, expect ~1024 each; allow ±25%.
	counts := make([]int, n)
	for p := uint64(0); p < 4096; p++ {
		counts[instanceFor(p<<pagePrefixBits, n)]++
	}
	for i, c := range counts {
		if c < 768 || c > 1280 {
			t.Fatalf("instance %d got %d of 4096 pages (counts %v), want ~1024", i, c, counts)
		}
	}

	// One instance is home to every address.
	for _, addr := range []uint64{0, 1, page, ^uint64(0)} {
		if got := instanceFor(addr, 1); got != 0 {
			t.Fatalf("1 instance: addr %#x -> %d, want 0", addr, got)
		}
	}
}
