package exp

import (
	"sync"

	"attache/internal/config"
	"attache/internal/stats"
)

// The paper's evaluation is one shape repeated: every workload under a
// handful of memory systems or configurations. This file is that shape.
// An experiment states its columns as runSpecs and sweep fetches the
// [workload][spec] matrix through the memo cache; the simulations are
// independent and deterministic, and every experiment aggregates the
// matrix serially in workload order, so tables are byte-identical at any
// Parallelism.

// runSpec is one column of a sweep: a memory system under a configuration
// derived from the harness default.
type runSpec struct {
	label string // display only (progress lines), never part of a run's identity
	kind  config.SystemKind
	mod   func(config.Config) config.Config // nil: the harness default
}

// sys is the default configuration of one memory system.
func sys(kind config.SystemKind) runSpec { return runSpec{kind: kind} }

// fourSystems is the sweep behind Figs. 12-14: the baseline first, then
// the three compressed systems the paper compares against it.
var fourSystems = []runSpec{sys(config.SystemBaseline), sys(config.SystemMDCache),
	sys(config.SystemAttache), sys(config.SystemIdeal)}

// sweep runs every workload under every spec and returns the
// [workload][spec] matrix, or the first error in matrix order. Cells fan
// out one goroutine each — runCached admits Parallelism of them at a
// time — unless Parallelism <= 1, when they run in order on the caller.
func (h *Harness) sweep(specs ...runSpec) ([][]Metrics, error) {
	ws := h.Workloads()
	ms := make([][]Metrics, len(ws))
	errs := make([]error, len(ws)*len(specs))
	var wg sync.WaitGroup
	for i, w := range ws {
		ms[i] = make([]Metrics, len(specs))
		for j, s := range specs {
			err := &errs[i*len(specs)+j]
			if h.Parallelism <= 1 {
				if ms[i][j], *err = h.runCached(w, s); *err != nil {
					return nil, *err
				}
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ms[i][j], *err = h.runCached(w, s)
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// Experiment is one table of the evaluation, declared: an id, a title,
// its columns and one of three bodies.
//   - specs and row: a sweep of every workload under specs, one row per
//     workload (row turns that workload's runs, one per spec, into its
//     cells), then the mean row.
//   - specs, rows and cells: a sweep reduced to one row per label in rows,
//     row r holding the suite mean of cells(m, r), summed in workload order.
//   - body: a table that is not a sweep, or not reduced by a mean, filled
//     by body itself.
type Experiment struct {
	ID, Title string
	Columns   []string

	specs []runSpec
	row   func(m []Metrics) []float64
	rows  []string
	cells func(m []Metrics, r int) []float64
	body  func(h *Harness, t *stats.Table) error
}

// Run renders e's table on h.
func (e Experiment) Run(h *Harness) (*stats.Table, error) {
	t := stats.NewTable(e.Title, e.Columns...)
	if e.body != nil {
		if err := e.body(h, t); err != nil {
			return nil, err
		}
		return t, nil
	}
	ms, err := h.sweep(e.specs...)
	if err != nil {
		return nil, err
	}
	if e.row != nil {
		for i, w := range h.Workloads() {
			t.AddRow(w, e.row(ms[i])...)
		}
		t.AddMeanRow()
		return t, nil
	}
	for r, label := range e.rows {
		mean := make([]float64, len(e.Columns))
		for _, m := range ms {
			for c, v := range e.cells(m, r) {
				mean[c] += v
			}
		}
		for c := range mean {
			mean[c] /= float64(len(ms))
		}
		t.AddRow(label, mean...)
	}
	return t, nil
}

// vsBaseline applies ratio to every run after the first against the
// first, the baseline.
func vsBaseline(m []Metrics, ratio func(m, base Metrics) float64) []float64 {
	out := make([]float64, 0, len(m)-1)
	for _, x := range m[1:] {
		out = append(out, ratio(x, m[0]))
	}
	return out
}

func speedup(m, base Metrics) float64      { return float64(base.Cycles) / float64(m.Cycles) }
func energyRatio(m, base Metrics) float64  { return m.EnergyNJ / base.EnergyNJ }
func latencyRatio(m, base Metrics) float64 { return m.AvgReadLatency / base.AvgReadLatency }
