package exp

import (
	"fmt"
	"slices"

	"attache/internal/config"
	"attache/internal/memctrl"
	"attache/internal/sim"
	"attache/internal/stats"
)

// claim is one quantitative claim from the paper and the cell of an
// experiment's table that measures it, by row label and column name,
// divided by div. An empty id is the one structural claim, §I's COPR
// SRAM.
type claim struct {
	artifact, text string
	paper          float64
	id, row, col   string
	div            float64
}

// claims are the paper's headline numbers, in EXPERIMENTS.md's order.
var claims = []claim{
	{"Fig 4", "fraction of lines compressible to 30B (suite mean)", 0.50, "fig4", "mean", "compressible_pct", 100},
	{"Fig 5/16", "1MB metadata-cache hit rate (suite mean, LRU)", 0.77, "fig16", "mean", "lru", 1},
	{"Fig 11", "COPR prediction accuracy (suite mean)", 0.88, "fig11", "mean", "accuracy", 1},
	{"Fig 12", "metadata-cache speedup over baseline", 1.08, "fig12", "mean", "mdcache", 1},
	{"Fig 12", "Attaché speedup over baseline", 1.153, "fig12", "mean", "attache", 1},
	{"Fig 12", "ideal speedup over baseline", 1.17, "fig12", "mean", "ideal", 1},
	{"Fig 13", "metadata-cache energy vs baseline", 0.90, "fig13", "mean", "mdcache", 1},
	{"Fig 13", "Attaché energy vs baseline", 0.78, "fig13", "mean", "attache", 1},
	{"Fig 13", "ideal energy vs baseline", 0.77, "fig13", "mean", "ideal", 1},
	{"Fig 14a", "Attaché bandwidth improvement over baseline", 1.16, "fig14", "mean", "bw_attache", 1},
	{"Fig 14b", "Attaché average memory latency vs baseline", 0.86, "fig14", "mean", "lat_attache", 1},
	{"Fig 15", "extra requests from metadata caching (suite mean)", 1.25, "fig15", "mean", "norm_total", 1},
	{"Table I", "15-bit CID collision probability (%)", 0.003, "tab1", "CID 15 bits", "measured_collision_pct", 1},
	{"§I", "COPR SRAM (KB)", 368, "", "", "", 1},
}

// compare evaluates every paper claim on h and tabulates paper against
// measured, the source of EXPERIMENTS.md's headline table. Each table a
// claim reads is rendered once.
func compare(h *Harness, t *stats.Table) error {
	tables := map[string]*stats.Table{}
	for _, c := range claims {
		got, err := c.cell(h, tables)
		if err != nil {
			return err
		}
		t.AddRow(c.artifact+": "+c.text, c.paper, got, got/c.paper)
	}
	return nil
}

// cell reads c's measured value on h, rendering the table it reads into
// tables unless an earlier claim already did.
func (c claim) cell(h *Harness, tables map[string]*stats.Table) (float64, error) {
	if c.id == "" { // the SRAM of the predictor an Attaché system built for h.Cfg carries
		s, err := memctrl.New(sim.NewEngine(), h.Cfg, config.SystemAttache, nil, 0)
		if err != nil {
			return 0, err
		}
		return float64(s.Predictor().StorageBytes() >> 10), nil
	}
	tab, ok := tables[c.id]
	if !ok {
		e, _ := Lookup(c.id) // TestClaimsReadDeclaredCells holds every id to a declaration
		var err error
		if tab, err = e.Run(h); err != nil {
			return 0, err
		}
		tables[c.id] = tab
	}
	for r := 0; r < tab.Rows(); r++ {
		if tab.RowLabel(r) == c.row {
			return tab.Cell(r, slices.Index(tab.Columns, c.col)) / c.div, nil
		}
	}
	return 0, fmt.Errorf("compare: %s has no row %q", c.id, c.row)
}
