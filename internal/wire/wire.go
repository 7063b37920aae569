// Package wire is the daemon's /v1 wire format, once, for both ends: the
// declarations of every JSON body (their struct tags define it) and one
// reader per data-path body kind. /v1/batch comes as the binary frame
// client.Do speaks (frame.go) or as JSON, told apart by the first byte
// (IsFrame); encoding/json reads and answers the JSON. The /v1/read and
// /v1/write bodies (codec.go) are matched by hand in the form AppendLine
// renders, and any other line body goes to encoding/json. So what the
// JSON readers accept is encoding/json's by construction;
// FuzzWireOpsVsJSON and FuzzWireBatchVsJSON hold them to that,
// FuzzFrameVsJSON the frame to the JSON it stands in for. Beyond a
// Decoder's rules, only whitespace may follow a request array.
//
// The control-plane bodies (Stats, Error, traces) stay on encoding/json.
package wire

import (
	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/tier"
)

// LineReq is a /v1/read or /v1/write body as it is decoded: a request, or
// a read's answer. Addr is a pointer so a missing address stays
// distinguishable from 0.
type LineReq struct {
	Addr *uint64 `json:"addr"`
	Data []byte  `json:"data,omitempty"` // base64 in JSON; writes only
}

// Line is what the client sends to /v1/read and /v1/write and what both
// answer with: reads carry Data, writes OK.
type Line struct {
	Addr uint64 `json:"addr"`
	Data []byte `json:"data,omitempty"`
	OK   bool   `json:"ok,omitempty"`
}

// Error is the body of every non-2xx JSON answer.
type Error struct {
	Error string `json:"error"`
}

// Op is one op of a /v1/batch request. Addr is a pointer for the
// server's missing-address check; a client points it at its own op.
type Op struct {
	Op   string  `json:"op"` // "read" or "write"
	Addr *uint64 `json:"addr"`
	Data []byte  `json:"data,omitempty"`
}

// OpResult reports one batch op's outcome; exactly one of Data/OK/Error
// is meaningful.
type OpResult struct {
	Addr  uint64 `json:"addr"`
	Data  []byte `json:"data,omitempty"`
	OK    bool   `json:"ok,omitempty"`
	Error string `json:"error,omitempty"`
}

// Batch is the /v1/batch answer: one result per op, in order.
type Batch struct {
	Results []OpResult `json:"results"`
	Failed  int        `json:"failed"`
}

// Stats is the /v1/stats document (schema_version 2): nested sections
// with the per-instance, per-class, and per-tenant breakdowns the
// cluster layer introduces.
type Stats struct {
	SchemaVersion int                      `json:"schema_version"`
	Engine        Engine                   `json:"engine"`
	Robust        shard.RobustStats        `json:"robust"`
	Telemetry     Telemetry                `json:"telemetry"`
	Cluster       Cluster                  `json:"cluster"`
	Tenants       []cluster.TenantSnapshot `json:"tenants"`
}

// Engine is the storage-side view: merged totals plus each instance's
// own engine snapshot.
type Engine struct {
	Shards    int `json:"shards" prom:"attached_shards,gauge" help:"Configured shard count."`
	SRAMBytes int `json:"sram_bytes" prom:"attached_sram_overhead_bytes,gauge" help:"Summed predictor+CID SRAM across shards."`
	// CompressedLineRatio and BandwidthSavings are Total's ratios of the
	// same names.
	CompressedLineRatio float64            `json:"compressed_line_ratio" prom:"attached_compressed_line_ratio,gauge" help:"Fraction of stored lines compressed."`
	BandwidthSavings    float64            `json:"bandwidth_savings" prom:"attached_bandwidth_savings_ratio,gauge" help:"Fraction of sub-rank transfers avoided vs uncompressed."`
	Total               core.StatsSnapshot `json:"total"`
	PerInstance         []shard.Snapshot   `json:"per_instance"`
	// Tiers is the merged two-tier view (near/far residency, tier
	// traffic, far-link cost model figures), present only when the
	// cluster runs a tiered backend. Per-instance tier sections live in
	// each PerInstance snapshot. On tiered engines Total describes the
	// far (compressed) tier; near-tier accounting is all here.
	Tiers *tier.Snapshot `json:"tiers,omitempty"`
}

// Telemetry is the daemon-side view: uptime and live queue gauges
// (shard indices are global across instances).
type Telemetry struct {
	UptimeSeconds float64          `json:"uptime_seconds" prom:"attached_uptime_seconds,gauge" help:"Seconds since the daemon started serving."`
	Gauges        []obs.ShardGauge `json:"gauges"`
}

// Cluster is the SLO view: the instance count, per-class latency
// quantiles, and the Jain fairness index over per-tenant throughput.
type Cluster struct {
	Instances    int                     `json:"instances" prom:"attached_cluster_instances,gauge" help:"Engine instances the cluster places lines across by address."`
	Classes      []cluster.ClassSnapshot `json:"classes"`
	JainFairness float64                 `json:"jain_fairness" prom:"attached_cluster_jain_fairness,gauge" help:"Jain fairness index over per-tenant successful throughput."`
}
