// Package stats provides the counters, histograms, and derived-metric
// helpers used by every component of the Attaché simulator, plus small
// table-formatting utilities for the experiment harness. It is also the
// leaf where the serving side keeps the two numeric definitions its
// packages must agree on, Quantile and SplitMix64, and the folds that
// make a stats struct's field list its metric table (fold.go).
package stats

import (
	"fmt"
	"math"
	"sort"
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

// Mean tracks a running mean and extrema without storing samples.
type Mean struct {
	n    uint64
	sum  float64
	min  float64
	max  float64
	init bool
}

// Observe records one sample.
func (m *Mean) Observe(v float64) {
	m.n++
	m.sum += v
	if !m.init || v < m.min {
		m.min = v
	}
	if !m.init || v > m.max {
		m.max = v
	}
	m.init = true
}

// N reports the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Sum reports the sum of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Value reports the arithmetic mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Min reports the smallest sample, or 0 with no samples.
func (m *Mean) Min() float64 { return m.min }

// Max reports the largest sample, or 0 with no samples.
func (m *Mean) Max() float64 { return m.max }

// Histogram is a fixed-bucket linear histogram with overflow.
type Histogram struct {
	bucketWidth float64
	buckets     []uint64
	overflow    uint64
	n           uint64
	sum         float64
}

// NewHistogram creates a histogram with nBuckets linear buckets of the
// given width starting at zero; samples past the last bucket land in an
// overflow bucket.
func NewHistogram(bucketWidth float64, nBuckets int) *Histogram {
	if bucketWidth <= 0 {
		panic("stats: bucket width must be positive")
	}
	if nBuckets <= 0 {
		panic("stats: need at least one bucket")
	}
	return &Histogram{bucketWidth: bucketWidth, buckets: make([]uint64, nBuckets)}
}

// Observe records one sample. Negative samples clamp into the first bucket.
func (h *Histogram) Observe(v float64) {
	h.n++
	h.sum += v
	if v < 0 {
		h.buckets[0]++
		return
	}
	if v >= h.bucketWidth*float64(len(h.buckets)) {
		h.overflow++
		return
	}
	h.buckets[int(v/h.bucketWidth)]++
}

// N reports the number of samples.
func (h *Histogram) N() uint64 { return h.n }

// Mean reports the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Percentile reports an approximate percentile (0 < p <= 100) using the
// bucket midpoints. Overflow samples report the overflow boundary.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return (float64(i) + 0.5) * h.bucketWidth
		}
	}
	return float64(len(h.buckets)) * h.bucketWidth
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

// Bucket reports the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Overflow reports the number of samples beyond the last bucket.
func (h *Histogram) Overflow() uint64 { return h.overflow }

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

// GeoMean computes the geometric mean of vs, ignoring non-positive values.
func GeoMean(vs []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// SortedKeys returns the keys of m in sorted order; the experiment harness
// uses it for deterministic iteration.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
