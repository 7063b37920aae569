package main

import (
	"fmt"
	"io"
	"slices"
)

// compareFiles prints one row per (workload, end-to-end metric) present
// in both results files and reports whether any row regressed: the
// change's median worse than the base's by more than the metric's bound.
// A row whose run-to-run spread (quartile distance over median, either
// side) is wider than the bound is unresolved rather than ok, unless
// every run of the change beats every run of the base. Per-layer metrics
// of traced runs follow without a verdict; they have no bound.
func compareFiles(w io.Writer, basePath, changePath string) (regressed bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	if base.Host.CPU != change.Host.CPU || base.Host.NumCPU != change.Host.NumCPU {
		fmt.Fprintf(w, "warning: different hosts (%s x%d vs %s x%d); times do not compare\n",
			base.Host.CPU, base.Host.NumCPU, change.Host.CPU, change.Host.NumCPU)
	}
	fmt.Fprintf(w, "base %s (%s), change %s (%s)\n", basePath, base.Host.Commit, changePath, change.Host.Commit)
	fmt.Fprintf(w, "%-13s %-34s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "base median", "change median", "ratio", "spread", "bound", "verdict")
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			for _, d := range decls {
				b := valuesOf(base, name, traced, d.name)
				c := valuesOf(change, name, traced, d.name)
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				row := judge(d, b, c)
				regressed = regressed || row.verdict == "regressed"
				fmt.Fprintf(w, "%-13s %-34s %14.6g %14.6g %8.4f %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
					name, d.name, row.base, row.change, row.ratio, 100*row.spread, 100*d.bound, row.verdict, len(b), len(c))
			}
		}
	}
	return regressed, nil
}

func valuesOf(doc *resultsDoc, workload string, traced bool, name string) []float64 {
	var vs []float64
	for _, r := range doc.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

type verdictRow struct {
	base, change float64 // medians
	ratio        float64 // change / base
	spread       float64 // wider of the two sides' (q3-q1)/median
	verdict      string
}

func judge(d metricDecl, base, change []float64) verdictRow {
	_, bm, _ := quartiles(base)
	_, cm, _ := quartiles(change)
	row := verdictRow{base: bm, change: cm, ratio: per(cm, bm), spread: max(relSpread(base), relSpread(change))}
	if d.bound == 0 { // per-layer: shown, not judged
		row.verdict = "-"
		return row
	}
	worse := per(cm-bm, bm)
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.bound:
		row.verdict = "regressed"
	case row.spread > d.bound && !allBetter(d, base, change):
		row.verdict = "unresolved"
	default:
		row.verdict = "ok"
	}
	return row
}

// relSpread is the quartile distance of v as a share of its median: the
// PR driver's measure of run-to-run spread.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 < 0 {
		q2 = -q2
	}
	return per(q3-q1, q2)
}

// allBetter reports whether every change run reads better than every
// base run.
func allBetter(d metricDecl, base, change []float64) bool {
	if d.better == "higher" {
		return slices.Min(change) > slices.Max(base)
	}
	return slices.Max(change) < slices.Min(base)
}
