package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"attache/internal/config"
	"attache/internal/loadgen"
	"attache/internal/shard"
	"attache/internal/tier"
)

// Every serving workload, set up for real and driven for a hundredth of
// a run, verifies: no op fails and every read returns legal bytes.
func TestServingWorkloadsVerify(t *testing.T) {
	ctx := context.Background()
	for _, w := range servingWorkloads {
		st, err := setUp(ctx, w, 7, loadClients)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got := drive(ctx, driveConfig{ring: st.ring, targets: st.targets, length: 100 * time.Millisecond})
		if err := st.close(); err != nil {
			t.Errorf("%s: close: %v", w.name, err)
		}
		if got.failed() != 0 || got.ok == 0 || got.reads == 0 {
			t.Errorf("%s: ok=%d failed=%d verified reads=%d: %v", w.name, got.ok, got.failed(), got.reads, got.firstErr)
		}
	}
}

// One sweep at the golden seed matches the committed results, and a
// changed statistic is caught.
func TestSimSweepGolden(t *testing.T) {
	cells, err := simCells(config.Default().CPU.Cores)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := onePass(cells, goldenSeed, simRefsPerCore, config.CheckOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(cells, ms); err != nil {
		t.Fatalf("unchanged simulator: %v", err)
	}
	ms[5].BytesMoved++
	if err := checkGolden(cells, ms); err == nil || !strings.Contains(err.Error(), cells[5].name) {
		t.Fatalf("one byte more moved in %s: got %v", cells[5].name, err)
	}
}

// corruptingTarget flips one byte of its n-th read.
type corruptingTarget struct {
	loadgen.Target
	n int
}

func (c *corruptingTarget) DoCtx(ctx context.Context, ops []shard.Op) ([]shard.Result, error) {
	res, err := c.Target.DoCtx(ctx, ops)
	for i := range res {
		if err == nil && !ops[i].Write && res[i].Err == nil {
			if c.n--; c.n == 0 {
				res[i].Data[17] ^= 0x40
			}
		}
	}
	return res, err
}

func tinyWorkload(tc *tier.Config) *servingWorkload {
	return &servingWorkload{
		name: "tiny", wire: true, singleOps: true, tier: tc,
		build: func(seed int64) (*ring, error) { return planRing(seed, 400, 512, 7, 3, 0) },
	}
}

func TestOneFlippedByteFailsTheRun(t *testing.T) {
	ctx := context.Background()
	st, err := setUp(ctx, tinyWorkload(nil), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	clean := drive(ctx, driveConfig{ring: st.ring, targets: st.targets, maxEvents: 400})
	if clean.failed() != 0 {
		t.Fatalf("clean pass failed %d ops: %v", clean.failed(), clean.firstErr)
	}
	bad := []loadgen.Target{&corruptingTarget{Target: st.targets[0], n: 100}}
	got := drive(ctx, driveConfig{ring: st.ring, targets: bad, maxEvents: 400})
	if got.wrong != 1 || got.failed() != 1 {
		t.Fatalf("one flipped byte: wrong=%d failed=%d, want 1 and 1", got.wrong, got.failed())
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, err := percentile(sorted, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
	if _, err := percentile(sorted[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	if v, err := percentile(sorted[:20], 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %d, %v; want 10", v, err)
	}
}

// stallingTarget sleeps once, before its n-th event.
type stallingTarget struct {
	loadgen.Target
	n     int
	stall time.Duration
}

func (s *stallingTarget) DoCtx(ctx context.Context, ops []shard.Op) ([]shard.Result, error) {
	if s.n--; s.n == 0 {
		time.Sleep(s.stall)
	}
	return s.Target.DoCtx(ctx, ops)
}

// A stall is in the latency of the event it hit, but only one window of
// the run sees it: the reported tail is the quiet decile of the windows'.
func TestStallStaysInItsWindow(t *testing.T) {
	ctx := context.Background()
	w := tinyWorkload(nil)
	w.wire = false
	st, err := setUp(ctx, w, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	const stall = 50 * time.Millisecond
	slow := []loadgen.Target{&stallingTarget{Target: st.targets[0], n: 5000, stall: stall}}
	got := drive(ctx, driveConfig{ring: st.ring, targets: slow, length: time.Second})
	var worst int64
	hit := 0
	for _, win := range got.lat {
		if len(win) == 0 {
			continue
		}
		slowest := slices.Max(win)
		worst = max(worst, slowest)
		if slowest >= int64(stall) {
			hit++
		}
	}
	if worst < int64(stall) {
		t.Fatalf("slowest event took %v, the injected stall was %v", time.Duration(worst), stall)
	}
	if hit != 1 {
		t.Fatalf("stall seen in %d windows, want 1", hit)
	}
	tail, err := got.lat.percentile(99)
	if err != nil {
		t.Fatal(err)
	}
	if tail >= float64(stall)/10 {
		t.Errorf("reported tail %v took the stall in", time.Duration(tail))
	}
}

// The rungs of the ladder do the same modeled memory work, untiered and
// tiered, and a rung that did not is caught.
func TestLadderRungsAgree(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []*tier.Config{nil, {NearLines: 64, Policy: tier.PolicyLRU}} {
		w := tinyWorkload(tc)
		r, err := w.build(11)
		if err != nil {
			t.Fatal(err)
		}
		l := &ladder{r: r, evs: ladderSlice(r), model: newExactModel(r), tier: tc}
		steps := []func(context.Context) error{
			func(ctx context.Context) error { return l.runLive(ctx, w, true) },
			l.runServe, l.runCluster, l.runShard, l.runTier, l.runCore,
		}
		for _, step := range steps {
			if err := step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.checkEqualBlocks(); err != nil {
			t.Errorf("tier %v: %v", tc, err)
		}
		if l.core.blocks.blocksWritten == 0 || len(l.tr.spans) != 4*len(l.evs) {
			t.Errorf("tier %v: %d blocks written, %d spans for %d events", tc, l.core.blocks.blocksWritten, len(l.tr.spans), len(l.evs))
		}
		l.cluster.blocks.blocksRead++
		if err := l.checkEqualBlocks(); err == nil {
			t.Error("a rung with one more block read passed the check")
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{name: "event_mid_us", better: "lower", bound: 0.10}
	higher := metricDecl{name: "goodput_ops_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	wide := []float64{80, 120, 95, 105, 100}
	for _, c := range []struct {
		d            metricDecl
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 106}, "ok"},
		{lower, steady, []float64{114, 115, 113, 114, 116}, "regressed"},
		{higher, steady, []float64{88, 89, 87, 88, 86}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 122}, "ok"},
		{lower, wide, []float64{98, 99, 101, 102, 100}, "unresolved"},
		{lower, wide, []float64{70, 75, 72, 71, 74}, "ok"}, // every run beats every base run
	} {
		if got := judge(c.d, c.base, c.change).verdict; got != c.want {
			t.Errorf("%s base %v change %v: %s, want %s", c.d.name, c.base, c.change, got, c.want)
		}
	}
}

// quartiles is the rule the PR driver applies: Python's
// statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v; Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
}

// BENCHMARK.json at the repository root declares what this program
// reports: same workloads and reasons, same metrics, units and bounds.
func TestManifestMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no ../BENCHMARK.json:", err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	whys := map[string]string{simSweepName: simSweepWhy}
	for _, w := range servingWorkloads {
		if !w.ungated {
			whys[w.name] = w.why
		}
	}
	if len(m.Workloads) != len(whys) {
		t.Errorf("%d workloads declared, %d run", len(m.Workloads), len(whys))
	}
	for _, w := range m.Workloads {
		if whys[w.Name] != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %s: declared why (%d chars) %q, program says %q", w.Name, len(w.Why), w.Why, whys[w.Name])
		}
	}
	same := func(kind string, got []decl, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d reported", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || math.Abs(g.Bound-d.bound) > 1e-12 {
				t.Errorf("%s[%d]: declared %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}
