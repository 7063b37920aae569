package serve

import (
	"time"

	"attache/internal/wire"
)

// statsDoc builds the /v1/stats document (wire.Stats, schema v2).
func (s *Server) statsDoc() wire.Stats {
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
			Classes:      s.cl.ClassSnapshots(),
			JainFairness: s.cl.JainFairness(),
		},
		Tenants: s.cl.TenantSnapshots(),
	}
}
