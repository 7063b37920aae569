package exp

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"attache/internal/config"
)

// update regenerates the golden figure snapshots:
//
//	go test ./internal/exp -run TestGolden -update
//
// Regenerating on an unchanged tree is byte-identical (the harness is
// deterministic); commit the diff only when a figure shift is intended
// and explain it in the commit message (EXPERIMENTS.md).
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// goldenBands are the tolerance bands of the experiments that need their
// own; every other experiment gets defaultBand. Bands are wide enough to
// absorb cross-platform floating-point drift and deliberate noise
// sources, and tight enough that any real model change trips them.
var goldenBands = map[string]tolerance{
	"fig1":  {Rel: 0.05, Abs: 0.5},  // percentages
	"fig4":  {Rel: 0.01, Abs: 0.5},  // deterministic sampling
	"fig8":  {Rel: 0.02, Abs: 0.03}, // Monte-Carlo probabilities
	"tab1":  {Rel: 0.05, Abs: 0.02}, // collision percentages
	"fig11": {Rel: 0.02, Abs: 0.02}, // predictor accuracy
	"fig12": {Rel: 0.02, Abs: 0.01}, // speedups
}

// defaultBand is 2 % of the cell plus 0.01, which suits ratios, rates
// and fractions as well as large counts (cycles, bytes).
var defaultBand = tolerance{Rel: 0.02, Abs: 0.01}

// goldenHarness is the fixed small-scale configuration behind the golden
// snapshots. Scale 0.1 (1200 references per core) keeps the full set in
// seconds while preserving every figure's shape; the seed list and
// config must never change without regenerating the snapshots.
func goldenHarness() *Harness {
	h := NewHarness(0.1)
	h.Seeds = []int64{42}
	h.Cfg.Check = config.CheckInvariants
	return h
}

// TestGolden regenerates every registered experiment at small scale and
// diffs it against its checked-in snapshot; an experiment without one
// fails.
func TestGolden(t *testing.T) {
	h := goldenHarness()
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(h)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			got := snapshotTable(tab)
			path := filepath.Join("testdata", "golden", e.ID+".json")
			if *update {
				if err := writeGolden(path, got); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := readGolden(path)
			if err != nil {
				t.Fatalf("no golden snapshot (regenerate with -update): %v", err)
			}
			tol, ok := goldenBands[e.ID]
			if !ok {
				tol = defaultBand
			}
			if err := compareGolden(got, want, tol); err != nil {
				t.Errorf("%s regressed: %v", e.ID, err)
			}
		})
	}
}

// TestGoldenComparator covers the comparator itself: structural changes
// and out-of-band cells must fail, in-band drift must pass.
func TestGoldenComparator(t *testing.T) {
	base := goldenTable{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    []goldenRow{{Label: "r1", Cells: []float64{1.0, 2.0}}},
	}
	tol := tolerance{Rel: 0.05, Abs: 0.01}

	drift := base
	drift.Rows = []goldenRow{{Label: "r1", Cells: []float64{1.04, 2.0}}}
	if err := compareGolden(drift, base, tol); err != nil {
		t.Fatalf("in-band drift must pass: %v", err)
	}

	off := base
	off.Rows = []goldenRow{{Label: "r1", Cells: []float64{1.2, 2.0}}}
	if err := compareGolden(off, base, tol); err == nil {
		t.Fatal("out-of-band cell must fail")
	}

	nan := base
	nan.Rows = []goldenRow{{Label: "r1", Cells: []float64{math.NaN(), 2.0}}}
	if err := compareGolden(nan, base, tol); err == nil {
		t.Fatal("NaN cell must fail")
	}

	relabeled := base
	relabeled.Rows = []goldenRow{{Label: "r2", Cells: []float64{1.0, 2.0}}}
	if err := compareGolden(relabeled, base, tol); err == nil {
		t.Fatal("row relabel must fail")
	}

	recol := base
	recol.Columns = []string{"a", "c"}
	if err := compareGolden(recol, base, tol); err == nil {
		t.Fatal("column rename must fail")
	}
}
