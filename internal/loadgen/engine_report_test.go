package loadgen_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"attache/client"
	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/serve"
	"attache/internal/shard"
	"attache/internal/tier"
	"attache/internal/workload"
)

// TestReportCarriesEngineTotals: run against an in-process engine, the
// report carries the engine's own merged totals and tier view, read
// after the run — the compressed-line ratio, accuracy, bandwidth savings
// and RA occupancy are measured, not estimated. A target with no
// StatsSnapshot (the HTTP client) reports neither.
func TestReportCarriesEngineTotals(t *testing.T) {
	spec, err := workload.Preset("tiered-hotset", 11, 600)
	if err != nil {
		t.Fatal(err)
	}
	events, err := workload.Compose(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadgen.Config{
		Concurrency:    1,
		AddrSpace:      spec.AddrSpace,
		Prefill:        spec.Prefill,
		PrefillPayload: workload.PrefillPayload(spec),
	}
	newEngine := func() *shard.Engine {
		eng, err := shard.New(core.DefaultOptions(), shard.Config{
			Shards: 2,
			Tier:   &tier.Config{NearLines: 1024, Policy: tier.PolicyLRU},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}

	eng := newEngine()
	rep, err := loadgen.RunEvents(context.Background(), eng, cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.StatsSnapshot()
	if rep.Engine == nil || *rep.Engine != snap.Total {
		t.Fatalf("report engine totals %+v, want the engine's %+v", rep.Engine, snap.Total)
	}
	if rep.Tiers == nil || !reflect.DeepEqual(*rep.Tiers, *snap.Tiers) {
		t.Fatalf("report tiers %+v, want the engine's %+v", rep.Tiers, snap.Tiers)
	}
	if e := rep.Engine; e.Reads == 0 || e.Lines == 0 || e.CompressedLineRatio() == 0 || e.BandwidthSavings() == 0 {
		t.Fatalf("engine totals show no compressed traffic: %+v", e)
	}

	srv := httptest.NewServer(serve.New(newEngine(), serve.Config{}).Handler())
	defer srv.Close()
	cfg.Prefill = -1
	rep, err = loadgen.RunEvents(context.Background(), client.New(srv.URL, client.WithRetry(0)), cfg, events[:100])
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsOK == 0 {
		t.Fatalf("HTTP run did no work: %+v", rep)
	}
	if rep.Engine != nil || rep.Tiers != nil {
		t.Fatalf("HTTP target report has engine %+v, tiers %+v; want neither", rep.Engine, rep.Tiers)
	}
}
