package serve

import (
	"time"

	"attache/internal/wire"
)

// statsDoc builds the /v1/stats document (wire.Stats, schema v2);
// decisions > 0 inlines that many recent routing decisions.
func (s *Server) statsDoc(decisions int) wire.Stats {
	merged := s.cl.EngineSnapshot()
	return wire.Stats{
		SchemaVersion: 2,
		Engine: wire.Engine{
			Shards:      s.cl.Shards(),
			SRAMBytes:   merged.SRAMBytes,
			Total:       merged.Total,
			PerInstance: s.cl.PerInstanceSnapshots(),
			Tiers:       merged.Tiers,
		},
		Robust: merged.Robust,
		Telemetry: wire.Telemetry{
			UptimeSeconds: time.Since(s.started).Seconds(),
			Gauges:        s.cl.Gauges(),
		},
		Cluster: wire.Cluster{
			Instances:    s.cl.Instances(),
			Router:       s.cl.RouterName(),
			Classes:      s.cl.ClassSnapshots(),
			JainFairness: s.cl.JainFairness(),
			Decisions:    s.cl.Decisions(decisions),
		},
		Tenants: s.cl.TenantSnapshots(),
	}
}
