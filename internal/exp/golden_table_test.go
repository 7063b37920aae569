package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"attache/internal/stats"
)

// goldenTable is the JSON snapshot of one experiment's result table, the
// unit of the golden-figure regression harness (EXPERIMENTS.md): small
// deterministic runs of the paper's figures are checked in under
// testdata/golden/ and every change to the simulator is diffed against
// them within per-experiment tolerance bands.
type goldenTable struct {
	Title   string      `json:"title"`
	Columns []string    `json:"columns"`
	Rows    []goldenRow `json:"rows"`
}

type goldenRow struct {
	Label string    `json:"label"`
	Cells []float64 `json:"cells"`
}

// snapshotTable converts a result table into its golden form.
func snapshotTable(t *stats.Table) goldenTable {
	g := goldenTable{Title: t.Title, Columns: append([]string(nil), t.Columns...)}
	for r := 0; r < t.Rows(); r++ {
		row := goldenRow{Label: t.RowLabel(r), Cells: make([]float64, len(t.Columns))}
		for c := range t.Columns {
			row.Cells[c] = t.Cell(r, c)
		}
		g.Rows = append(g.Rows, row)
	}
	return g
}

// tolerance is one experiment's accepted deviation: a cell passes when
// |got-want| <= Abs + Rel*|want|. Structure (title, columns, row labels)
// must always match exactly.
type tolerance struct {
	Rel float64
	Abs float64
}

// compareGolden diffs a regenerated table against its checked-in golden
// snapshot and reports the first out-of-band cell.
func compareGolden(got, want goldenTable, tol tolerance) error {
	if got.Title != want.Title {
		return fmt.Errorf("title changed: got %q, want %q", got.Title, want.Title)
	}
	if len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("column count changed: got %d, want %d", len(got.Columns), len(want.Columns))
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			return fmt.Errorf("column %d changed: got %q, want %q", i, got.Columns[i], want.Columns[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("row count changed: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	for r := range got.Rows {
		if got.Rows[r].Label != want.Rows[r].Label {
			return fmt.Errorf("row %d label changed: got %q, want %q", r, got.Rows[r].Label, want.Rows[r].Label)
		}
		for c := range want.Rows[r].Cells {
			g, w := got.Rows[r].Cells[c], want.Rows[r].Cells[c]
			// Pass only inside the band: a NaN cell compares false with
			// everything, so "outside" would let it through.
			if !(math.Abs(g-w) <= tol.Abs+tol.Rel*math.Abs(w)) {
				return fmt.Errorf("%s / %s: got %.6g, want %.6g (tolerance rel=%g abs=%g)",
					got.Rows[r].Label, want.Columns[c], g, w, tol.Rel, tol.Abs)
			}
		}
	}
	return nil
}

// writeGolden serializes a snapshot with a trailing newline; regenerating
// an unchanged tree is byte-identical (json.MarshalIndent is
// deterministic).
func writeGolden(path string, g goldenTable) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readGolden loads a checked-in snapshot.
func readGolden(path string) (goldenTable, error) {
	var g goldenTable
	data, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
