package exp

import (
	"math"
	"testing"

	"attache/internal/config"
	"attache/internal/stats"
	"attache/internal/trace"
)

// runID renders the experiment declared under id on h.
func runID(t *testing.T, h *Harness, id string) *stats.Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	tab, err := e.Run(h)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tab
}

// tinyHarness trims the workload set and run length so every experiment
// can execute in test time. Experiments are exercised end-to-end; the
// paper-scale numbers are produced by the CLI / benchmarks.
func tinyHarness() *Harness {
	h := NewHarness(0.1) // 1200 accesses per core
	return h
}

// tinyWorkloads monkey-patches nothing: the harness always runs the full
// catalog, so tests that sweep all workloads use an even smaller scale.
func sweepHarness() *Harness {
	h := NewHarness(0)
	h.AccessesPerCore = 600
	return h
}

func TestFig4CompressibilityShape(t *testing.T) {
	h := tinyHarness()
	tab := runID(t, h, "fig4")
	if tab.Rows() != len(trace.Catalog())+1 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Suite mean ~50% (paper Fig. 4); per-benchmark values match their
	// profile targets within sampling noise.
	mean := tab.Cell(tab.Rows()-1, 0)
	if mean < 45 || mean > 55 {
		t.Fatalf("mean compressibility = %.1f%%, want ~50%%", mean)
	}
	for i, p := range trace.Catalog() {
		got := tab.Cell(i, 0)
		if math.Abs(got-p.CompressibleFrac*100) > 6 {
			t.Errorf("%s: measured %.1f%%, profile %.1f%%", p.Name, got, p.CompressibleFrac*100)
		}
	}
}

func TestFig2SubRankingShape(t *testing.T) {
	h := tinyHarness()
	tab := runID(t, h, "fig2")
	// (a) baseline: idle latency 120 cycles.
	if tab.Cell(0, 0) != 120 {
		t.Fatalf("baseline idle latency = %v", tab.Cell(0, 0))
	}
	// (b) sub-ranking alone: same bandwidth as one bus, higher latency.
	if tab.Cell(1, 0) <= tab.Cell(0, 0) {
		t.Fatal("sub-rank-only idle latency should exceed baseline")
	}
	// (c) sub-ranking + compression: baseline latency, ~2x bandwidth.
	if tab.Cell(2, 0) != 120 {
		t.Fatalf("compressed idle latency = %v, want 120", tab.Cell(2, 0))
	}
	if rb := tab.Cell(2, 2); rb < 1.7 {
		t.Fatalf("compressed relative bandwidth = %.2f, want ~2", rb)
	}
	if rb := tab.Cell(1, 2); rb > 1.2 {
		t.Fatalf("sub-rank-only relative bandwidth = %.2f, want ~1", rb)
	}
}

func TestFig8CollisionCurve(t *testing.T) {
	h := tinyHarness()
	tab := runID(t, h, "fig8")
	// Analytic column is monotonically increasing; at 32K accesses the
	// collision probability is ~63% (paper: "a 15-bit CID collides every
	// 32K accesses").
	prev := 0.0
	for i := 0; i < tab.Rows(); i++ {
		if tab.Cell(i, 0) < prev {
			t.Fatal("analytic curve not monotone")
		}
		prev = tab.Cell(i, 0)
	}
	found32k := false
	for i := 0; i < tab.Rows(); i++ {
		if tab.RowLabel(i) == "32768 accesses" {
			found32k = true
			if a := tab.Cell(i, 0); a < 0.60 || a > 0.66 {
				t.Fatalf("P(collision | 32K) = %.3f, want ~0.63", a)
			}
			// Measured within Monte-Carlo noise of analytic.
			if m := tab.Cell(i, 1); math.Abs(m-tab.Cell(i, 0)) > 0.2 {
				t.Fatalf("measured %.3f far from analytic %.3f", m, tab.Cell(i, 0))
			}
		}
	}
	if !found32k {
		t.Fatal("32K row missing")
	}
}

func TestTable1Shape(t *testing.T) {
	h := tinyHarness()
	tab := runID(t, h, "tab1")
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", tab.Rows())
	}
	// Paper Table I: 15 bits -> 0.003%, halving the width doubles it.
	wants := []float64{0.003, 0.006, 0.012}
	for i, want := range wants {
		got := tab.Cell(i, 1)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("row %d analytic = %.4f%%, want %.4f%%", i, got, want)
		}
		measured := tab.Cell(i, 2)
		if measured <= 0 || math.Abs(measured-want)/want > 0.6 {
			t.Errorf("row %d measured = %.4f%%, want ~%.4f%%", i, measured, want)
		}
	}
}

func TestFig12SmallSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	h := sweepHarness()
	tab := runID(t, h, "fig12")
	mean := tab.Rows() - 1
	mdAvg, attAvg, idealAvg := tab.Cell(mean, 0), tab.Cell(mean, 1), tab.Cell(mean, 2)
	t.Logf("fig12 means at tiny scale: md=%.3f att=%.3f ideal=%.3f", mdAvg, attAvg, idealAvg)
	if !(attAvg > mdAvg) {
		t.Fatalf("attache (%.3f) must beat metadata caching (%.3f) on average", attAvg, mdAvg)
	}
	if !(idealAvg >= attAvg-0.02) {
		t.Fatalf("ideal (%.3f) must bound attache (%.3f)", idealAvg, attAvg)
	}
	if attAvg < 1.02 {
		t.Fatalf("attache average speedup %.3f, want clearly positive", attAvg)
	}
}

func TestFig13EnergyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	h := sweepHarness()
	tab := runID(t, h, "fig13")
	mean := tab.Rows() - 1
	mdE, attE, idealE := tab.Cell(mean, 0), tab.Cell(mean, 1), tab.Cell(mean, 2)
	t.Logf("fig13 means at tiny scale: md=%.3f att=%.3f ideal=%.3f", mdE, attE, idealE)
	if !(attE < 1.0) {
		t.Fatalf("attache energy %.3f, want < baseline", attE)
	}
	if !(attE < mdE) {
		t.Fatalf("attache energy (%.3f) must beat metadata caching (%.3f)", attE, mdE)
	}
	if !(idealE <= attE+0.02) {
		t.Fatalf("ideal energy (%.3f) must bound attache (%.3f)", idealE, attE)
	}
}

func TestFig16PolicyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	h := sweepHarness()
	tab := runID(t, h, "fig16")
	mean := tab.Rows() - 1
	lru := tab.Cell(mean, 0)
	if lru <= 0.3 || lru > 1 {
		t.Fatalf("LRU mean hit rate = %.3f", lru)
	}
	// Paper: fancy policies buy only ~2%; allow generous slack but they
	// must be in the same ballpark as LRU.
	for c := 1; c < 3; c++ {
		if math.Abs(tab.Cell(mean, c)-lru) > 0.15 {
			t.Fatalf("policy %s mean %.3f far from LRU %.3f", tab.Columns[c], tab.Cell(mean, c), lru)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 18 {
		t.Fatalf("experiments = %d, want 18 (13 paper artifacts + 5 extensions)", len(exps))
	}
	for i, e := range exps {
		// Exactly one body: a per-workload row, per-label suite means, or
		// a table of its own.
		bodies := 0
		for _, set := range []bool{e.row != nil, e.cells != nil, e.body != nil} {
			if set {
				bodies++
			}
		}
		if bodies != 1 || (e.body == nil) == (len(e.specs) == 0) || (e.cells == nil) != (len(e.rows) == 0) {
			t.Errorf("experiment %q does not declare exactly one body", e.ID)
		}
		if got, ok := Lookup(e.ID); !ok || got.Title != e.Title {
			t.Fatalf("Lookup(%q) = %q, %v", e.ID, got.Title, ok)
		}
		for _, prev := range exps[:i] {
			if prev.ID == e.ID {
				t.Fatalf("experiment id %q registered twice", e.ID)
			}
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("unknown id found")
	}
}

func TestRunCacheReused(t *testing.T) {
	h := sweepHarness()
	runs := 0
	h.Progress = func(string) { runs++ }
	for i := 0; i < 2; i++ {
		if _, err := h.runCached("lbm", sys(config.SystemBaseline)); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 1 {
		t.Fatalf("cache miss: %d runs for identical request", runs)
	}
}

// TestExperimentShapesShareOneSweep validates the structural properties
// of the remaining experiment tables from a single cached sweep.
func TestExperimentShapesShareOneSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	h := sweepHarness()
	n := len(h.Workloads())

	fig1 := runID(t, h, "fig1")
	if fig1.Rows() != n+1 {
		t.Fatalf("fig1 rows = %d", fig1.Rows())
	}
	if mean := fig1.Cell(n, 1); mean <= 0 {
		t.Fatalf("fig1 mean extra traffic = %v, want positive", mean)
	}

	fig11 := runID(t, h, "fig11")
	if acc := fig11.Cell(n, 0); acc < 0.5 || acc > 1 {
		t.Fatalf("fig11 mean accuracy = %v", acc)
	}

	fig14 := runID(t, h, "fig14")
	// Mean row: attache latency must beat mdcache latency; attache
	// bandwidth must beat mdcache bandwidth.
	if !(fig14.Cell(n, 1) > fig14.Cell(n, 0)) {
		t.Fatalf("fig14: attache bw %.3f not above mdcache %.3f", fig14.Cell(n, 1), fig14.Cell(n, 0))
	}
	if !(fig14.Cell(n, 4) < fig14.Cell(n, 3)) {
		t.Fatalf("fig14: attache latency %.3f not below mdcache %.3f", fig14.Cell(n, 4), fig14.Cell(n, 3))
	}

	fig15 := runID(t, h, "fig15")
	for r := 0; r < fig15.Rows(); r++ {
		if fig15.Cell(r, 2) < 1 {
			t.Fatalf("fig15 %s: normalized total %.3f below 1", fig15.RowLabel(r), fig15.Cell(r, 2))
		}
	}

	anat := runID(t, h, "copr-anatomy")
	// Shares of the three levels (plus the default source, not shown)
	// cannot exceed 1.
	for r := 0; r < anat.Rows(); r++ {
		share := anat.Cell(r, 0) + anat.Cell(r, 2) + anat.Cell(r, 4)
		if share > 1.0001 {
			t.Fatalf("%s: source shares sum to %.3f", anat.RowLabel(r), share)
		}
	}

	pred := runID(t, h, "predictors")
	// COPR must be at least as accurate as the last-outcome predictor on
	// average (that is the point of the comparison).
	if !(pred.Cell(n, 3) > pred.Cell(n, 2)) {
		t.Fatalf("copr accuracy %.3f not above last-outcome %.3f", pred.Cell(n, 3), pred.Cell(n, 2))
	}

	eb := runID(t, h, "energy")
	// Component fractions sum to ~1 for every system.
	for r := 0; r < eb.Rows(); r++ {
		var sum float64
		for c := 0; c < 5; c++ {
			sum += eb.Cell(r, c)
		}
		if sum < 0.98 || sum > 1.02 {
			t.Fatalf("%s: energy fractions sum to %.3f", eb.RowLabel(r), sum)
		}
	}
}
