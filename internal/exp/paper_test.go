package exp

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"attache/internal/stats"
)

// TestCoprSRAMIsMeasured: compare's §I cell is the SRAM of the predictor
// the Attaché system builds for the harness configuration, so halving
// LiPR moves it. The sweeps are faked; only that one cell is read.
func TestCoprSRAMIsMeasured(t *testing.T) {
	fakeSimulate(t, func(RunConfig) (Metrics, error) { return Metrics{Cycles: 1}, nil })
	sram := func(h *Harness) float64 {
		t.Helper()
		tab := runID(t, h, "compare")
		r := tab.Rows() - 1
		if tab.RowLabel(r) != "§I: COPR SRAM (KB)" {
			t.Fatalf("last compare row is %q", tab.RowLabel(r))
		}
		return tab.Cell(r, 1)
	}
	h := parTestHarness()
	if got := sram(h); got != 368 {
		t.Fatalf("default COPR SRAM = %v KB, want the paper's 368", got)
	}
	h = parTestHarness()
	h.Cfg.Attache.LiPRBytes /= 2
	if got, want := sram(h), float64(368-h.Cfg.Attache.LiPRBytes>>10); got != want {
		t.Fatalf("COPR SRAM with half the LiPR = %v KB, want %v", got, want)
	}
}

// TestClaimsReadDeclaredCells: every claim but §I names a declared
// experiment, a row and a column of its table, and divides by something.
// The sweeps are faked.
func TestClaimsReadDeclaredCells(t *testing.T) {
	fakeSimulate(t, func(RunConfig) (Metrics, error) { return Metrics{Cycles: 1}, nil })
	h := parTestHarness()
	for _, c := range claims {
		if c.id == "" {
			continue
		}
		tab := runID(t, h, c.id)
		if !slices.Contains(tab.Columns, c.col) || c.div == 0 {
			t.Errorf("%s reads column %q of %s over %v", c.artifact, c.col, c.id, c.div)
		} else if _, err := c.cell(h, map[string]*stats.Table{c.id: tab}); err != nil {
			t.Errorf("%s: %v", c.artifact, err)
		}
	}
}

// TestExperimentsDocMatchesClaims holds EXPERIMENTS.md's headline table
// to the claims list: one row per claim, in claim order, with the claim's
// artifact and paper value. The measured column stays prose: regenerating
// it at scale 1 with two seeds takes minutes.
func TestExperimentsDocMatchesClaims(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(doc), "## Headline summary")
	if !found {
		t.Fatal("EXPERIMENTS.md has no headline summary")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue // prose, or the |---| rule
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) == 0 || len(rows)-1 != len(claims) {
		t.Fatalf("headline table has %d rows under its header, want one per claim (%d)", len(rows)-1, len(claims))
	}
	for i, c := range claims {
		row := rows[i+1]
		if row[0] != c.artifact {
			t.Errorf("row %d: artifact %q, want %q", i+1, row[0], c.artifact)
		}
		v, err := docValue(row[2], c.text)
		if err != nil || math.Abs(v-c.paper) > 1e-9 {
			t.Errorf("row %d (%s): paper cell %q reads %v (%v), want %v", i+1, c.text, row[2], v, err, c.paper)
		}
	}
}

// docValue reads a paper cell as its claim states the value: a claim whose
// text names its unit, "(%)" or "(KB)", as printed; otherwise a signed
// percentage is a ratio to the baseline (1 + p/100) and an unsigned one a
// fraction (p/100).
func docValue(cell, text string) (float64, error) {
	cell = strings.Trim(cell, "*")
	num := strings.Replace(strings.Fields(cell + " ")[0], "−", "-", 1)
	v, err := strconv.ParseFloat(num, 64)
	switch {
	case err != nil:
		return 0, err
	case strings.HasSuffix(text, "(%)") || strings.HasSuffix(text, "(KB)"):
		return v, nil
	case !strings.HasSuffix(cell, "%"):
		return 0, fmt.Errorf("%q is not a percentage", cell)
	case num[0] == '+' || num[0] == '-':
		return 1 + v/100, nil
	}
	return v / 100, nil
}
