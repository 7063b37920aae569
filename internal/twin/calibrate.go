package twin

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/shard"
	"attache/internal/tier"
	"attache/internal/workload"
)

// This file is the calibration harness: it runs the twin and the real
// simulator over the same (scenario, config) sweep and scores how well
// the closed forms track the measured metrics — per-metric MAPE and
// Pearson correlation. The committed tolerance bands live under
// testdata/calibration.json; the calibration test enforces them and CI
// runs it as the twin-calibration job.

// Point is one (scenario, config) pair in the calibration sweep.
type Point struct {
	Scenario string `json:"scenario"`
	Events   int    `json:"events"`
	Seed     int64  `json:"seed"`
	Label    string `json:"label"`
	Config   Config `json:"config"`
}

// Metrics maps metric name → value. The calibrated metrics are
// compression_ratio, bandwidth_savings, predictor_accuracy,
// ra_occupancy, and (tiered points only) far_link_bytes.
type Metrics map[string]float64

// Observation pairs the twin's prediction with the simulator's
// measurement for one point.
type Observation struct {
	Label     string  `json:"label"`
	Twin      Metrics `json:"twin"`
	Sim       Metrics `json:"sim"`
	TwinNanos int64   `json:"twin_nanos"`
}

// MetricSummary scores one metric across the sweep.
type MetricSummary struct {
	N       int     `json:"n"`
	MAPE    float64 `json:"mape"`
	Pearson float64 `json:"pearson"`
}

// Bands is the committed calibration contract: per-metric MAPE
// ceilings and Pearson floors. Regenerate with
// `go test ./internal/twin -run TestCalibration -update` after an
// intentional model or engine change.
type Bands struct {
	Description string             `json:"description"`
	Events      int                `json:"events"`
	MaxMAPE     map[string]float64 `json:"max_mape"`
	MinPearson  map[string]float64 `json:"min_pearson"`
}

// metricFloor is the absolute error floor per metric: relative error is
// |twin−sim| / max(|sim|, floor), so near-zero measurements (an
// expected collision count of 0.4, a ratio of 0) do not explode MAPE.
func metricFloor(name string) float64 {
	switch name {
	case "ra_occupancy":
		return 8 // lines; collisions are rare events at wide CIDs
	case "far_link_bytes":
		return 64 * 1024 // two thousand blocks over a whole run
	default:
		return 0.02 // ratio-valued metrics
	}
}

// DefaultSweep is the committed calibration grid: every preset scenario
// crossed with engine configurations that stress each closed form —
// the paper default, a collision-heavy narrow CID at four shards, a
// PaPR-only predictor (exercises the accuracy model below LiPR's
// perfect regime), BLEM-only, and a capacity-pressured lru tier.
func DefaultSweep(events int) []Point {
	if events <= 0 {
		events = DefaultEvents
	}
	paprOnly := core.DefaultOptions().Predictor
	paprOnly.EnableLiPR = false
	configs := []struct {
		label string
		cfg   Config
	}{
		{"base", Config{Shards: 2, CIDBits: 15}},
		{"cid4-s4", Config{Shards: 4, CIDBits: 4}},
		{"papr", Config{Shards: 2, CIDBits: 15, Predictor: paprOnly}},
		{"blem", Config{Shards: 2, CIDBits: 15, DisablePredictor: true}},
		{"tier-lru", Config{Shards: 2, CIDBits: 15, Tier: &tierLRU}},
	}
	var pts []Point
	for _, scen := range workload.Names() {
		for _, c := range configs {
			pts = append(pts, Point{
				Scenario: scen,
				Events:   events,
				Seed:     calibrationSeed,
				Label:    scen + "/" + c.label,
				Config:   c.cfg,
			})
		}
	}
	return pts
}

// calibrationSeed pins the sweep's workload seed: calibration compares
// expectations against one realization, so the realization must be
// fixed for the committed bands to be meaningful.
const calibrationSeed = 0x7717

// DefaultEvents is the per-client event budget the committed bands were
// derived at; DefaultSweep(0) uses it.
const DefaultEvents = 1200

// tierLRU is the sweep's tiered configuration: a near tier of 1/16th
// of the largest scenario's address space, enough pressure that Che's
// approximation (not just cold misses) carries the prediction.
var tierLRU = tier.Config{NearLines: 1024}

// RunPoint evaluates the twin and runs the simulator for one point.
func RunPoint(ctx context.Context, pt Point) (Observation, error) {
	spec, err := workload.Preset(pt.Scenario, pt.Seed, pt.Events)
	if err != nil {
		return Observation{}, err
	}
	start := time.Now()
	pred, err := Evaluate(spec, pt.Config)
	twinNanos := time.Since(start).Nanoseconds()
	if err != nil {
		return Observation{}, fmt.Errorf("twin %s: %w", pt.Label, err)
	}
	sim, err := simulate(ctx, spec, pt.Config)
	if err != nil {
		return Observation{}, fmt.Errorf("sim %s: %w", pt.Label, err)
	}
	obs := Observation{
		Label:     pt.Label,
		Twin:      predictionMetrics(pred),
		Sim:       sim,
		TwinNanos: twinNanos,
	}
	return obs, nil
}

// Calibrate runs the whole sweep.
func Calibrate(ctx context.Context, pts []Point) ([]Observation, error) {
	Classes() // pay the one-time codec probe outside the timed region
	obs := make([]Observation, 0, len(pts))
	for _, pt := range pts {
		o, err := RunPoint(ctx, pt)
		if err != nil {
			return nil, err
		}
		obs = append(obs, o)
	}
	return obs, nil
}

// predictionMetrics projects a Prediction onto the calibrated metrics.
func predictionMetrics(p Prediction) Metrics {
	m := Metrics{
		"compression_ratio":  p.CompressionRatio,
		"bandwidth_savings":  p.BandwidthSavings,
		"predictor_accuracy": p.PredictorAccuracy,
		"ra_occupancy":       p.RAOccupancy,
	}
	if p.Tier != nil {
		m["far_link_bytes"] = p.Tier.FarLinkBytes
	}
	return m
}

// simulate runs spec on a real engine under the point's configuration —
// the same deterministic regime the scenario goldens pin (sequential
// submission, spec-seeded engine).
func simulate(ctx context.Context, spec workload.Spec, cfg Config) (Metrics, error) {
	events, err := workload.Compose(spec)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	opts.CIDBits = cfg.CIDBits
	opts.DisablePredictor = cfg.DisablePredictor
	if cfg.Predictor.MemorySize != 0 {
		opts.Predictor = cfg.Predictor
	}
	eng, err := shard.New(opts, shard.Config{Shards: cfg.Shards, Tier: cfg.Tier})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	lcfg := loadgen.Config{
		Seed:           spec.Seed,
		Concurrency:    1,
		AddrSpace:      spec.AddrSpace,
		Prefill:        spec.Prefill,
		PrefillPayload: workload.PrefillPayload(spec),
	}
	if _, err := loadgen.RunEvents(ctx, eng, lcfg, events); err != nil {
		return nil, err
	}
	snap := eng.StatsSnapshot()
	m := Metrics{
		"compression_ratio":  snap.Total.CompressedLineRatio(),
		"bandwidth_savings":  snap.Total.BandwidthSavings(),
		"predictor_accuracy": snap.Total.PredictionAccuracy,
		"ra_occupancy":       float64(snap.Total.RAOccupancy),
	}
	if snap.Tiers != nil {
		m["far_link_bytes"] = snap.Tiers.FarLinkBytes
	}
	return m, nil
}

// Summarize scores every metric present in the observations.
func Summarize(obs []Observation) map[string]MetricSummary {
	names := map[string]bool{}
	for _, o := range obs {
		for k := range o.Sim {
			names[k] = true
		}
	}
	out := make(map[string]MetricSummary, len(names))
	for name := range names {
		var tw, sm []float64
		for _, o := range obs {
			sv, okS := o.Sim[name]
			tv, okT := o.Twin[name]
			if okS && okT {
				tw = append(tw, tv)
				sm = append(sm, sv)
			}
		}
		var apeSum float64
		for i := range tw {
			apeSum += math.Abs(tw[i]-sm[i]) / math.Max(math.Abs(sm[i]), metricFloor(name))
		}
		out[name] = MetricSummary{
			N:       len(tw),
			MAPE:    apeSum / float64(len(tw)),
			Pearson: pearson(tw, sm),
		}
	}
	return out
}

// pearson is the sample correlation, with the degenerate cases pinned:
// two flat series agree perfectly (r = 1); one flat series cannot
// correlate (r = 0).
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 1
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	const eps = 1e-12
	if sxx < eps && syy < eps {
		return 1
	}
	if sxx < eps || syy < eps {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CheckBands verifies a summary against the committed bands, returning
// every violation (nil when calibrated).
func CheckBands(sum map[string]MetricSummary, b Bands) []error {
	var errs []error
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := sum[name]
		maxM, ok := b.MaxMAPE[name]
		if !ok {
			errs = append(errs, fmt.Errorf("metric %s has no committed MAPE band", name))
		} else if s.MAPE > maxM {
			errs = append(errs, fmt.Errorf("metric %s: MAPE %.4f exceeds band %.4f", name, s.MAPE, maxM))
		}
		minP, ok := b.MinPearson[name]
		if !ok {
			errs = append(errs, fmt.Errorf("metric %s has no committed Pearson band", name))
		} else if s.Pearson < minP {
			errs = append(errs, fmt.Errorf("metric %s: Pearson %.4f below band %.4f", name, s.Pearson, minP))
		}
	}
	return errs
}

// LoadBands reads a committed bands file.
func LoadBands(path string) (Bands, error) {
	var b Bands
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}
