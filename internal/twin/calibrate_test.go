package twin

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate testdata/calibration.json from the observed sweep")

const bandsFile = "calibration.json"

// TestCalibration is the twin's accuracy contract: it runs the full
// DefaultSweep (every preset scenario × every stress config) through
// both the closed-form model and the real simulator, scores per-metric
// MAPE and Pearson correlation, and enforces the committed bands.
// After an intentional model or engine change, regenerate with
//
//	go test ./internal/twin -run TestCalibration -update
//
// Regeneration still fails if the observed calibration violates the
// hard acceptance ceilings (MAPE ≤ 15%, Pearson ≥ 0.95 for the
// paper-level metrics), so -update cannot launder a real regression.
func TestCalibration(t *testing.T) {
	pts := DefaultSweep(0)
	events := pts[0].Events
	obs, err := Calibrate(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(obs)
	for name, s := range sum {
		t.Logf("%-20s n=%d MAPE=%.4f Pearson=%.4f", name, s.N, s.MAPE, s.Pearson)
	}

	path := filepath.Join("testdata", bandsFile)
	if *update {
		bands, err := DeriveBands(sum, events)
		if err != nil {
			t.Fatalf("observed calibration misses a hard ceiling; not writing bands: %v", err)
		}
		if err := WriteBands(path, bands); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	bands, err := LoadBands(path)
	if err != nil {
		t.Fatalf("load committed bands (regenerate with -update): %v", err)
	}
	if bands.Events != events {
		t.Errorf("committed bands were derived at %d events but the sweep ran %d", bands.Events, events)
	}
	for _, err := range CheckBands(sum, bands) {
		t.Error(err)
	}

	// The acceptance bound on model cost, measured on the sweep itself:
	// the twin must evaluate each point in well under a millisecond.
	var worst time.Duration
	for _, o := range obs {
		if d := time.Duration(o.TwinNanos); d > worst {
			worst = d
		}
	}
	if worst > time.Millisecond {
		t.Errorf("slowest twin evaluation took %v, want < 1ms", worst)
	}
}

// Committed bands must never be looser than the hard ceilings — a
// hand-edited file cannot widen the acceptance contract.
func TestCommittedBandsWithinCeilings(t *testing.T) {
	bands, err := LoadBands(filepath.Join("testdata", bandsFile))
	if err != nil {
		t.Fatalf("load committed bands (regenerate with -update): %v", err)
	}
	for name, ceil := range HardCeilings.MaxMAPE {
		got, ok := bands.MaxMAPE[name]
		if !ok {
			t.Errorf("committed bands missing MAPE for %s", name)
			continue
		}
		if got > ceil {
			t.Errorf("committed MAPE band for %s = %v exceeds hard ceiling %v", name, got, ceil)
		}
	}
	for name, floor := range HardCeilings.MinPearson {
		got, ok := bands.MinPearson[name]
		if !ok {
			t.Errorf("committed bands missing Pearson for %s", name)
			continue
		}
		if got < floor {
			t.Errorf("committed Pearson band for %s = %v below hard floor %v", name, got, floor)
		}
	}
}

func TestDeriveBandsRejectsRegression(t *testing.T) {
	bad := map[string]MetricSummary{
		"compression_ratio": {N: 30, MAPE: 0.5, Pearson: 0.99},
	}
	if _, err := DeriveBands(bad, 1200); err == nil {
		t.Error("DeriveBands accepted a MAPE above the hard ceiling")
	}
	bad = map[string]MetricSummary{
		"compression_ratio": {N: 30, MAPE: 0.01, Pearson: 0.5},
	}
	if _, err := DeriveBands(bad, 1200); err == nil {
		t.Error("DeriveBands accepted a Pearson below the hard floor")
	}
	if _, err := DeriveBands(map[string]MetricSummary{"bogus_metric": {}}, 1200); err == nil {
		t.Error("DeriveBands accepted a metric with no hard ceiling")
	}
}

func TestCheckBandsReportsViolations(t *testing.T) {
	bands := Bands{
		MaxMAPE:    map[string]float64{"m": 0.1},
		MinPearson: map[string]float64{"m": 0.9},
	}
	sum := map[string]MetricSummary{"m": {N: 5, MAPE: 0.2, Pearson: 0.5}}
	if errs := CheckBands(sum, bands); len(errs) != 2 {
		t.Errorf("got %d violations, want 2 (MAPE and Pearson): %v", len(errs), errs)
	}
	sum = map[string]MetricSummary{"m": {N: 5, MAPE: 0.05, Pearson: 0.95}}
	if errs := CheckBands(sum, bands); len(errs) != 0 {
		t.Errorf("clean summary reported violations: %v", errs)
	}
	sum = map[string]MetricSummary{"unbanded": {N: 5}}
	if errs := CheckBands(sum, bands); len(errs) != 2 {
		t.Errorf("unbanded metric: got %d violations, want 2 (no bands committed): %v", len(errs), errs)
	}
}

func TestPearsonDegenerateCases(t *testing.T) {
	flat := []float64{3, 3, 3}
	rising := []float64{1, 2, 3}
	if r := pearson(flat, flat); r != 1 {
		t.Errorf("flat vs flat: r = %v, want 1", r)
	}
	if r := pearson(flat, rising); r != 0 {
		t.Errorf("flat vs rising: r = %v, want 0", r)
	}
	if r := pearson(rising, rising); r < 0.999999 {
		t.Errorf("identical series: r = %v, want 1", r)
	}
	falling := []float64{3, 2, 1}
	if r := pearson(rising, falling); r > -0.999999 {
		t.Errorf("reversed series: r = %v, want -1", r)
	}
}

// HardCeilings are the acceptance bounds the bands themselves may never
// exceed, even when regenerated: the paper-level metrics must calibrate
// to ≤15% MAPE and ≥0.95 Pearson; the count-like metrics (collision
// occupancy, far-link bytes) are noisier — small expected counts and
// LRU transients — and get documented looser bounds.
var HardCeilings = struct {
	MaxMAPE    map[string]float64
	MinPearson map[string]float64
}{
	MaxMAPE: map[string]float64{
		"compression_ratio":  0.15,
		"bandwidth_savings":  0.15,
		"predictor_accuracy": 0.15,
		"ra_occupancy":       0.40,
		"far_link_bytes":     0.40,
	},
	MinPearson: map[string]float64{
		"compression_ratio":  0.95,
		"bandwidth_savings":  0.95,
		"predictor_accuracy": 0.90,
		"ra_occupancy":       0.90,
		"far_link_bytes":     0.90,
	},
}

// DeriveBands turns an observed summary into committable bands with
// headroom (×1.3 MAPE, ×0.99 Pearson), clamped to the hard acceptance
// ceilings. It fails when the observed calibration misses a ceiling:
// regeneration must never launder a real regression into the contract.
func DeriveBands(sum map[string]MetricSummary, events int) (Bands, error) {
	b := Bands{
		Description: "Calibration contract: twin-vs-simulator MAPE ceilings and Pearson floors over the DefaultSweep grid. Regenerate with: go test ./internal/twin -run TestCalibration -update",
		Events:      events,
		MaxMAPE:     map[string]float64{},
		MinPearson:  map[string]float64{},
	}
	for name, s := range sum {
		ceilM, ok := HardCeilings.MaxMAPE[name]
		if !ok {
			return b, fmt.Errorf("metric %s has no hard MAPE ceiling", name)
		}
		floorP, ok := HardCeilings.MinPearson[name]
		if !ok {
			return b, fmt.Errorf("metric %s has no hard Pearson floor", name)
		}
		if s.MAPE > ceilM {
			return b, fmt.Errorf("metric %s: observed MAPE %.4f exceeds hard ceiling %.4f", name, s.MAPE, ceilM)
		}
		if s.Pearson < floorP {
			return b, fmt.Errorf("metric %s: observed Pearson %.4f below hard floor %.4f", name, s.Pearson, floorP)
		}
		b.MaxMAPE[name] = math.Min(ceilM, roundUp(s.MAPE*1.3+0.005, 3))
		b.MinPearson[name] = math.Max(floorP, roundDown(s.Pearson*0.99, 3))
	}
	return b, nil
}

func roundUp(v float64, digits int) float64 {
	scale := math.Pow(10, float64(digits))
	return math.Ceil(v*scale) / scale
}

func roundDown(v float64, digits int) float64 {
	scale := math.Pow(10, float64(digits))
	return math.Floor(v*scale) / scale
}

// WriteBands writes a bands file with a trailing newline.
func WriteBands(path string, b Bands) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
