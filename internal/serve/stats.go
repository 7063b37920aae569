package serve

import (
	"time"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/tier"
)

// statsV2 is the stats document (schema_version 2): nested sections
// with the per-instance, per-class, and per-tenant breakdowns the
// cluster layer introduces.
type statsV2 struct {
	SchemaVersion int                      `json:"schema_version"`
	Engine        engineSection            `json:"engine"`
	Robust        shard.RobustStats        `json:"robust"`
	Telemetry     telemetrySection         `json:"telemetry"`
	Cluster       clusterSection           `json:"cluster"`
	Tenants       []cluster.TenantSnapshot `json:"tenants"`
}

// engineSection is the storage-side view: merged totals plus each
// instance's own engine snapshot.
type engineSection struct {
	Shards      int                `json:"shards"`
	SRAMBytes   int                `json:"sram_bytes"`
	Total       core.StatsSnapshot `json:"total"`
	PerInstance []shard.Snapshot   `json:"per_instance"`
	// Tiers is the merged two-tier view (near/far residency, tier
	// traffic, far-link cost model figures), present only when the
	// cluster runs a tiered backend. Per-instance tier sections live in
	// each PerInstance snapshot. On tiered engines Total describes the
	// far (compressed) tier; near-tier accounting is all here.
	Tiers *tier.Snapshot `json:"tiers,omitempty"`
}

// telemetrySection is the daemon-side view: uptime and live queue
// gauges (shard indices are global across instances).
type telemetrySection struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Gauges        []obs.ShardGauge `json:"gauges"`
}

// clusterSection is the routing/SLO view: per-class latency quantiles,
// the Jain fairness index over per-tenant throughput, and (on request)
// recent routing decisions for counterfactual analysis.
type clusterSection struct {
	Instances    int                     `json:"instances"`
	Router       string                  `json:"router"`
	Classes      []cluster.ClassSnapshot `json:"classes"`
	JainFairness float64                 `json:"jain_fairness"`
	Decisions    []cluster.Decision      `json:"decisions,omitempty"`
}

func (s *Server) statsV2(decisions int) statsV2 {
	merged := s.cl.EngineSnapshot()
	return statsV2{
		SchemaVersion: 2,
		Engine: engineSection{
			Shards:      s.cl.Shards(),
			SRAMBytes:   merged.SRAMBytes,
			Total:       merged.Total,
			PerInstance: s.cl.PerInstanceSnapshots(),
			Tiers:       merged.Tiers,
		},
		Robust: merged.Robust,
		Telemetry: telemetrySection{
			UptimeSeconds: time.Since(s.started).Seconds(),
			Gauges:        s.cl.Gauges(),
		},
		Cluster: clusterSection{
			Instances:    s.cl.Instances(),
			Router:       s.cl.RouterName(),
			Classes:      s.cl.ClassSnapshots(),
			JainFairness: s.cl.JainFairness(),
			Decisions:    s.cl.Decisions(decisions),
		},
		Tenants: s.cl.TenantSnapshots(),
	}
}
