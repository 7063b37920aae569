package workload

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/shard"
)

// Profile is one scenario's behavioral fingerprint: the exact offered
// sequence (checksums, counts, error taxonomy) plus the engine-level
// metrics the paper cares about — compression ratio, predictor accuracy,
// bandwidth savings — and the run's latency quantiles. Profiles are
// pinned per scenario under testdata/golden/*.json and every change to
// the engine, predictor, or workload layer is diffed against them.
//
// Comparison discipline (CompareProfile): sequence identity and counts
// are exact — they are seeded-deterministic by construction. The derived
// float metrics get small tolerance bands. Latency is pinned by per-kind
// sample count and checked structurally (quantiles monotone); wall-clock
// micros do not transfer across machines, so goldens never store them.
type Profile struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Checksum fingerprints the full event stream (offsets included);
	// OpChecksum ignores offsets — the replay-identity fingerprint.
	Checksum   string `json:"checksum"`
	OpChecksum string `json:"op_checksum"`
	Events     int    `json:"events"`
	Ops        uint64 `json:"ops"`
	OpsOK      uint64 `json:"ops_ok"`
	// Errors is the loadgen taxonomy of the run (deterministic at
	// concurrency 1: e.g. never_written counts on un-prefilled reads).
	Errors map[string]uint64 `json:"errors,omitempty"`
	// The engine metrics, from the post-run merged stats snapshot.
	CompressionRatio  float64 `json:"compression_ratio"`
	PredictorAccuracy float64 `json:"predictor_accuracy"`
	BandwidthSavings  float64 `json:"bandwidth_savings"`
	ShedRate          float64 `json:"shed_rate"`
	// LatencyCounts pins the per-kind latency sample counts (one sample
	// per event, so these are plan-determined and exact).
	LatencyCounts map[string]uint64 `json:"latency_counts,omitempty"`
	// Latency holds the live per-kind quantiles of a measured run. It is
	// stripped from stored goldens (WriteProfile) because wall-clock
	// micros do not transfer across machines — regeneration stays
	// byte-identical on an unchanged tree. Live quantiles are still
	// checked structurally (monotone, counts matching LatencyCounts).
	Latency map[string]loadgen.Quantiles `json:"latency,omitempty"`
}

// ProfileTolerance bands the float metrics: a metric passes when
// |got-want| <= Abs + Rel*|want|.
type ProfileTolerance struct {
	Rel float64
	Abs float64
}

// DefaultProfileTolerance is deliberately tight: the metrics are
// deterministic at concurrency 1, so the band only absorbs float
// refactors (evaluation-order changes), not behavior drift.
func DefaultProfileTolerance() ProfileTolerance { return ProfileTolerance{Rel: 0.02, Abs: 0.01} }

// MeasureProfile composes spec, runs it to completion against a fresh
// 2-shard engine at concurrency 1 (sequential submission — the
// deterministic regime), and returns the profile. The engine uses the
// paper's default options with the spec's seed.
func MeasureProfile(ctx context.Context, spec Spec) (Profile, error) {
	events, err := Compose(spec)
	if err != nil {
		return Profile{}, err
	}
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	eng, err := shard.New(opts, shard.Config{Shards: 2})
	if err != nil {
		return Profile{}, err
	}
	defer eng.Close()
	cfg := loadgen.Config{
		Seed:           spec.Seed,
		Concurrency:    1,
		AddrSpace:      spec.AddrSpace,
		Prefill:        spec.Prefill,
		PrefillPayload: PrefillPayload(spec),
	}
	rep, err := loadgen.RunEvents(ctx, eng, cfg, events)
	if err != nil {
		return Profile{}, err
	}
	total := rep.Engine
	p := Profile{
		Scenario:          spec.Name,
		Seed:              spec.Seed,
		Checksum:          rep.Checksum,
		OpChecksum:        OpChecksum(events),
		Events:            rep.Events,
		Ops:               rep.Ops,
		OpsOK:             rep.OpsOK,
		Errors:            rep.Errors,
		CompressionRatio:  total.CompressedLineRatio(),
		PredictorAccuracy: total.PredictionAccuracy,
		BandwidthSavings:  total.BandwidthSavings(),
		ShedRate:          rep.ShedRate,
		Latency:           rep.Latency,
	}
	if len(rep.Latency) > 0 {
		p.LatencyCounts = make(map[string]uint64, len(rep.Latency))
		for kind, q := range rep.Latency {
			p.LatencyCounts[kind] = q.Count
		}
	}
	if len(p.Errors) == 0 {
		p.Errors = nil
	}
	return p, nil
}

// CompareProfile diffs a freshly measured profile against its golden
// snapshot and reports the first divergence.
func CompareProfile(got, want Profile, tol ProfileTolerance) error {
	if got.Scenario != want.Scenario {
		return fmt.Errorf("scenario changed: got %q, want %q", got.Scenario, want.Scenario)
	}
	if got.Seed != want.Seed {
		return fmt.Errorf("seed changed: got %d, want %d", got.Seed, want.Seed)
	}
	if got.Checksum != want.Checksum {
		return fmt.Errorf("event-stream checksum changed: got %s, want %s (the generated workload itself moved)", got.Checksum, want.Checksum)
	}
	if got.OpChecksum != want.OpChecksum {
		return fmt.Errorf("op checksum changed: got %s, want %s", got.OpChecksum, want.OpChecksum)
	}
	if got.Events != want.Events || got.Ops != want.Ops || got.OpsOK != want.OpsOK {
		return fmt.Errorf("counts changed: events/ops/ok got %d/%d/%d, want %d/%d/%d",
			got.Events, got.Ops, got.OpsOK, want.Events, want.Ops, want.OpsOK)
	}
	if len(got.Errors) != len(want.Errors) {
		return fmt.Errorf("error taxonomy changed: got %v, want %v", got.Errors, want.Errors)
	}
	for k, w := range want.Errors {
		if got.Errors[k] != w {
			return fmt.Errorf("error taxonomy[%s] changed: got %d, want %d", k, got.Errors[k], w)
		}
	}
	metric := func(name string, g, w float64) error {
		if math.Abs(g-w) > tol.Abs+tol.Rel*math.Abs(w) {
			return fmt.Errorf("%s out of band: got %.6g, want %.6g (tolerance rel=%g abs=%g)",
				name, g, w, tol.Rel, tol.Abs)
		}
		return nil
	}
	for _, m := range []struct {
		name string
		g, w float64
	}{
		{"compression_ratio", got.CompressionRatio, want.CompressionRatio},
		{"predictor_accuracy", got.PredictorAccuracy, want.PredictorAccuracy},
		{"bandwidth_savings", got.BandwidthSavings, want.BandwidthSavings},
		{"shed_rate", got.ShedRate, want.ShedRate},
	} {
		if err := metric(m.name, m.g, m.w); err != nil {
			return err
		}
	}
	// Latency: structural only. Counts are plan-determined; micros are not.
	if len(got.Latency) != len(want.LatencyCounts) {
		return fmt.Errorf("latency buckets changed: got %d kinds, want %d", len(got.Latency), len(want.LatencyCounts))
	}
	for kind, wantCount := range want.LatencyCounts {
		g, ok := got.Latency[kind]
		if !ok {
			return fmt.Errorf("latency bucket %q disappeared", kind)
		}
		if g.Count != wantCount {
			return fmt.Errorf("latency[%s] sample count changed: got %d, want %d", kind, g.Count, wantCount)
		}
		if !(g.P50Micros <= g.P90Micros && g.P90Micros <= g.P99Micros && g.P99Micros <= g.MaxMicros) {
			return fmt.Errorf("latency[%s] quantiles not monotone: %+v", kind, g)
		}
	}
	return nil
}

// WriteProfile serializes a golden profile with a trailing newline,
// stripping the machine-local latency micros (Latency) so regenerating
// an unchanged tree is byte-identical.
func WriteProfile(path string, p Profile) error {
	p.Latency = nil
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadProfile loads a checked-in golden profile.
func ReadProfile(path string) (Profile, error) {
	var p Profile
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
