// Package stats provides the counters and derived-metric
// helpers used by every component of the Attaché simulator, plus small
// table-formatting utilities for the experiment harness. It is also the
// leaf where the serving side keeps the two numeric definitions its
// packages must agree on, Quantile and SplitMix64, and the folds that
// make a stats struct's field list its metric table (fold.go).
package stats

import (
	"fmt"
	"strings"
)

// Counter is a monotonic event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Restore sets the counter to an absolute value — the snapshot/restore
// path, where a rebuilt component resumes from serialized counters.
func (c *Counter) Restore(v uint64) { c.n = v }

// Ratio is a hit/total style ratio tracker.
type Ratio struct {
	hits  uint64
	total uint64
}

// Observe records one observation; hit marks it as a success.
func (r *Ratio) Observe(hit bool) {
	r.total++
	if hit {
		r.hits++
	}
}

// Hits reports the number of successful observations.
func (r *Ratio) Hits() uint64 { return r.hits }

// Total reports the number of observations.
func (r *Ratio) Total() uint64 { return r.total }

// Restore sets the ratio to absolute hit/total counts — the
// snapshot/restore path, which refuses hits above total before it gets
// here: a ratio above 1 always indicates a corrupt snapshot.
func (r *Ratio) Restore(hits, total uint64) { r.hits, r.total = hits, total }

// Value reports hits/total, or 0 when nothing was observed.
func (r *Ratio) Value() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.total)
}

// Mean tracks a running mean without storing samples.
type Mean struct {
	n   uint64
	sum float64
}

// Observe records one sample.
func (m *Mean) Observe(v float64) {
	m.n++
	m.sum += v
}

// N reports the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Value reports the arithmetic mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Quantile reads the q-quantile (0 <= q <= 1) of a non-empty sample
// sorted ascending, by the nearest-rank rule index = floor(q*(n-1)): q=0
// is the minimum, q=1 the maximum, and no index is ever out of range.
// Every exact-sample quantile the serving side reports (loadgen's
// report, the cluster's per-class SLO view) is this one, so they agree
// on the same samples.
func Quantile[T any](sorted []T, q float64) T {
	return sorted[int(q*float64(len(sorted)-1))]
}

// SplitMix64 is the splitmix64 finalizer: a bijective 64-bit mixer with
// full avalanche. It is the one hash the serving side uses — shard
// placement, affinity routing, the scrambler keystream, trace IDs and
// workload sub-seeds all call it, and each of them pins its output, so
// the constants may never change. Small enough to inline at every call
// site, across packages.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Table accumulates labelled rows of float columns and renders them as an
// aligned text table; the experiment harness uses it to print the same
// rows/series the paper reports.
type Table struct {
	Title   string
	Columns []string
	rows    []tableRow
}

type tableRow struct {
	label string
	cells []float64
}

// NewTable creates a table with the given title and column headers (the
// first column is always the row label).
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a labelled row. The number of cells must match the number
// of columns.
func (t *Table) AddRow(label string, cells ...float64) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row %q has %d cells, table has %d columns", label, len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, tableRow{label: label, cells: cells})
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell reports the value at (row, col).
func (t *Table) Cell(row, col int) float64 { return t.rows[row].cells[col] }

// RowLabel reports the label of row i.
func (t *Table) RowLabel(i int) string { return t.rows[i].label }

// ColumnMean reports the geometric-free arithmetic mean of column col
// across all rows (paper averages are arithmetic over benchmarks).
func (t *Table) ColumnMean(col int) float64 {
	if len(t.rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range t.rows {
		sum += r.cells[col]
	}
	return sum / float64(len(t.rows))
}

// AddMeanRow appends a row labelled "mean" holding each column's mean of
// the rows added so far.
func (t *Table) AddMeanRow() {
	cells := make([]float64, len(t.Columns))
	for c := range t.Columns {
		cells[c] = t.ColumnMean(c)
	}
	t.AddRow("mean", cells...)
}

// String renders the table with aligned columns and 3-decimal cells.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	labelW := len("benchmark")
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		if colW[i] < 9 {
			colW[i] = 9
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW, "benchmark")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.label)
		for i, v := range r.cells {
			fmt.Fprintf(&b, "  %*.3f", colW[i], v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row, for
// piping experiment output into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.ReplaceAll(r.label, ",", ";"))
		for _, v := range r.cells {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown with 3-decimal
// cells.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("| benchmark |")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---:|")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "| %s |", strings.ReplaceAll(r.label, "|", "\\|"))
		for _, v := range r.cells {
			fmt.Fprintf(&b, " %.3f |", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
