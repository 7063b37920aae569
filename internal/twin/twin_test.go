package twin

import (
	"math"
	"testing"
	"time"

	"attache/internal/tier"
	"attache/internal/workload"
)

func mustSpec(t testing.TB, scenario string) workload.Spec {
	t.Helper()
	spec, err := workload.Preset(scenario, calibrationSeed, 1200)
	if err != nil {
		t.Fatalf("Preset(%s): %v", scenario, err)
	}
	return spec
}

func TestEvaluateValidation(t *testing.T) {
	spec := mustSpec(t, "streaming")
	if _, err := Evaluate(spec, Config{CIDBits: 0}); err == nil {
		t.Error("CIDBits 0 accepted")
	}
	if _, err := Evaluate(spec, Config{CIDBits: 16}); err == nil {
		t.Error("CIDBits 16 accepted")
	}
	if _, err := Evaluate(spec, Config{CIDBits: 15, Tier: &tier.Config{NearLines: 64, Policy: "freq"}}); err == nil {
		t.Error("non-lru tier policy accepted (only lru has a closed form)")
	}
	if _, err := Evaluate(workload.Spec{}, Config{CIDBits: 15}); err == nil {
		t.Error("empty spec accepted")
	}
}

// A tier with NearLines 0 is documented as bit-identical to the
// untiered engine; the twin must predict identical headline metrics.
func TestEvaluateZeroNearMatchesUntiered(t *testing.T) {
	spec := mustSpec(t, "write-burst")
	flat, err := Evaluate(spec, Config{CIDBits: 15})
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := Evaluate(spec, Config{CIDBits: 15, Tier: &tier.Config{NearLines: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Tier == nil {
		t.Fatal("tiered config produced no tier prediction")
	}
	if tiered.BandwidthSavings != flat.BandwidthSavings || tiered.BlocksRead != flat.BlocksRead ||
		tiered.CompressionRatio != flat.CompressionRatio || tiered.RAOccupancy != flat.RAOccupancy {
		t.Errorf("NearLines 0 diverges from untiered: %+v vs %+v", tiered, flat)
	}
	if tiered.Tier.NearHitRate != 0 {
		t.Errorf("NearLines 0 near hit rate = %v, want 0 (everything is far)", tiered.Tier.NearHitRate)
	}
}

// An unbounded near tier (NearLines < 0) never demotes and never
// misses: the far link must see zero traffic.
func TestEvaluateUnboundedNear(t *testing.T) {
	spec := mustSpec(t, "zipfian-hot-page")
	pred, err := Evaluate(spec, Config{CIDBits: 15, Tier: &tier.Config{NearLines: -1}})
	if err != nil {
		t.Fatal(err)
	}
	tp := pred.Tier
	if tp == nil {
		t.Fatal("no tier prediction")
	}
	if tp.NearHitRate != 1 || tp.FarReads != 0 || tp.FarWrites != 0 || tp.FarLinkBytes != 0 {
		t.Errorf("unbounded near leaked far traffic: %+v", tp)
	}
}

// Pressuring the near tier must monotonically increase predicted
// far-link traffic and the BLEM-only engine must predict exactly two
// blocks per access (savings 0).
func TestEvaluateMonotoneTierPressure(t *testing.T) {
	spec := mustSpec(t, "tiered-hotset")
	var prev float64
	for i, near := range []int64{-1, 4096, 1024, 256} {
		pred, err := Evaluate(spec, Config{CIDBits: 15, Tier: &tier.Config{NearLines: near}})
		if err != nil {
			t.Fatal(err)
		}
		if pred.Tier.FarLinkBytes < prev {
			t.Errorf("near=%d: far link bytes %v fell below looser config's %v", near, pred.Tier.FarLinkBytes, prev)
		}
		if i > 0 && pred.Tier.NearHitRate > 1 {
			t.Errorf("near=%d: hit rate %v > 1", near, pred.Tier.NearHitRate)
		}
		prev = pred.Tier.FarLinkBytes
	}
}

func TestEvaluateBLEMOnly(t *testing.T) {
	spec := mustSpec(t, "pointer-chasing")
	pred, err := Evaluate(spec, Config{CIDBits: 15, DisablePredictor: true})
	if err != nil {
		t.Fatal(err)
	}
	if pred.PredictorAccuracy != 1 {
		t.Errorf("BLEM accuracy = %v, want 1 (header read is always right)", pred.PredictorAccuracy)
	}
	if pred.Reads > 0 {
		wantBlocks := pred.Reads * 2
		if math.Abs(pred.BlocksRead-wantBlocks) > 1e-9 {
			t.Errorf("BLEM blocks read = %v, want exactly 2/read = %v", pred.BlocksRead, wantBlocks)
		}
	}
}

func TestCounterUp(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0, 0},
		{1, 1},
		{0.5, 0.5},
	}
	for _, c := range cases {
		if got := counterUp(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("counterUp(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Symmetry: counterUp(q) + counterUp(1-q) = 1 for the birth–death
	// chain, and monotonicity in q.
	prev := -1.0
	for q := 0.05; q < 1; q += 0.05 {
		up := counterUp(q)
		if s := up + counterUp(1-q); math.Abs(s-1) > 1e-9 {
			t.Errorf("counterUp(%v)+counterUp(%v) = %v, want 1", q, 1-q, s)
		}
		if up <= prev {
			t.Errorf("counterUp not increasing at q=%v", q)
		}
		prev = up
	}
}

func TestUnwrittenAt(t *testing.T) {
	// One deterministic writer covering its whole range by t=h.
	det := []writerLoad{{w: 1, h: 2, det: true}}
	if got := unwrittenAt(det, 2); got != 0 {
		t.Errorf("stream writer at full horizon: unwritten = %v, want 0", got)
	}
	if got := unwrittenAt(det, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("stream writer at half horizon: unwritten = %v, want 0.5", got)
	}
	// Poisson writer: e^{-w} at full horizon.
	poi := []writerLoad{{w: 2, h: 1}}
	if got := unwrittenAt(poi, 5); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Errorf("poisson writer past horizon: unwritten = %v, want e^-2", got)
	}
	if got := avgUnwritten(nil, 1); got != 1 {
		t.Errorf("no writers: avgUnwritten = %v, want 1", got)
	}
	// The time average of a decaying quantity sits strictly between its
	// endpoint values.
	avg := avgUnwritten(poi, 1)
	if avg <= math.Exp(-2) || avg >= 1 {
		t.Errorf("avgUnwritten = %v, want in (e^-2, 1)", avg)
	}
}

func TestCheT(t *testing.T) {
	// Population fits: characteristic time is infinite, every class hits.
	classes := []lruClass{{lines: 100, p: 0.01}}
	if tc := cheT(classes, 200); !math.IsInf(tc, 1) {
		t.Errorf("fitting population: T = %v, want +Inf", tc)
	}
	if h := cheHit(0.01, math.Inf(1)); h != 1 {
		t.Errorf("hit at infinite T = %v, want 1", h)
	}
	// Under pressure, Che's fixed point conserves capacity:
	// Σ lines·(1−e^{−p·T}) = C.
	classes = []lruClass{
		{lines: 1000, p: 0.005},
		{lines: 3000, p: 0.0005},
	}
	const cap = 800
	tc := cheT(classes, cap)
	var occ float64
	for _, c := range classes {
		occ += c.lines * cheHit(c.p, tc)
	}
	if math.Abs(occ-cap) > 1e-6*cap {
		t.Errorf("Che occupancy = %v, want %v", occ, cap)
	}
	// Hotter classes hit more.
	if cheHit(0.005, tc) <= cheHit(0.0005, tc) {
		t.Error("hotter class does not hit more often")
	}
}

func TestClassesProfile(t *testing.T) {
	for _, kind := range workload.Kinds() {
		prof, ok := Classes()[kind]
		if !ok {
			t.Errorf("no class profile for payload kind %q", kind)
			continue
		}
		if prof.PCompress < 0 || prof.PCompress > 1 {
			t.Errorf("%s: PCompress %v out of [0,1]", kind, prof.PCompress)
		}
	}
	comp, hostile := Classes()[workload.PayloadCompressible], Classes()[workload.PayloadHostile]
	if comp.PCompress < 0.95 {
		t.Errorf("compressible class PCompress = %v, want ≈1", comp.PCompress)
	}
	if hostile.PCompress > 0.05 {
		t.Errorf("hostile class PCompress = %v, want ≈0", hostile.PCompress)
	}
}

// The acceptance bound: one twin evaluation of a (spec, config) point
// must stay under a millisecond. Measured directly (10-run average)
// in addition to BenchmarkTwinEvaluate so plain `go test` enforces it.
func TestEvaluateUnderMillisecond(t *testing.T) {
	spec := mustSpec(t, "tiered-hotset")
	cfg := Config{CIDBits: 15, Tier: &tier.Config{NearLines: 1024}}
	if _, err := Evaluate(spec, cfg); err != nil { // warm the class probe
		t.Fatal(err)
	}
	const runs = 10
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := Evaluate(spec, cfg); err != nil {
			t.Fatal(err)
		}
	}
	avg := time.Since(start) / runs
	if avg > time.Millisecond {
		t.Errorf("Evaluate averaged %v per point, want < 1ms", avg)
	}
}

func BenchmarkTwinEvaluate(b *testing.B) {
	spec := mustSpec(b, "tiered-hotset")
	cfg := Config{CIDBits: 15, Tier: &tier.Config{NearLines: 1024}}
	if _, err := Evaluate(spec, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
