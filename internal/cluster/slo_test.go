package cluster

import (
	"testing"
	"time"
)

// TestClassQuantilesMatchLoadgen pins the per-class quantiles to the
// same nearest-rank answers loadgen's report gives for these samples
// (loadgen's TestQuantilesNearestRank holds the identical table): both
// read stats.Quantile, so a daemon's /v1/stats and the load generator's
// report agree on what P50 of the same latencies is. n=3 is the case the
// two used to disagree on (index 0 vs 1).
func TestClassQuantilesMatchLoadgen(t *testing.T) {
	for _, tc := range []struct {
		n             int // samples are 1µs .. nµs, recorded in descending order
		p50, p90, p99 float64
	}{
		{1, 1, 1, 1},
		{3, 2, 2, 2},
		{10, 5, 9, 9},
	} {
		b := newSLOBook(nil)
		for us := tc.n; us >= 1; us-- {
			b.record("t", time.Duration(us)*time.Microsecond, 1, 1, 0, 0)
		}
		got := b.ClassSnapshots()[0]
		if got.P50us != tc.p50 || got.P90us != tc.p90 || got.P99us != tc.p99 || got.MaxUs != float64(tc.n) {
			t.Errorf("n=%d: p50/p90/p99/max = %v/%v/%v/%v, want %v/%v/%v/%d",
				tc.n, got.P50us, got.P90us, got.P99us, got.MaxUs, tc.p50, tc.p90, tc.p99, tc.n)
		}
	}
}
