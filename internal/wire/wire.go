// Package wire is the daemon's /v1 wire format, once, for both ends:
// the declarations of every JSON body, and for the data-path bodies (Op,
// OpResult, Batch, Line, LineReq) the codec that moves them — append-style
// encoders and a byte-slice Scanner (codec.go) that internal/serve and
// client both use, so the two ends cannot drift and neither goes through
// reflection per op. The struct tags below remain the definition of the
// format: the codec is held to what encoding/json does with these very
// types by the differential fuzz targets FuzzWireOpsVsJSON and
// FuzzWireBatchVsJSON.
//
// Where the Scanner is stricter than encoding/json — each case pinned by
// TestNarrowings, everything else encoding/json accepts is accepted with
// the same result (unknown members of any shape skipped, escapes resolved,
// duplicate members and nulls settled the same way):
//
//   - a key must be spelled exactly: "Addr" is refused, not folded to "addr";
//   - "data" must be a base64 string, not an array of byte values;
//   - a value under an unknown key may nest at most 64 deep;
//   - "results" may appear once in an answer;
//   - nothing but whitespace may follow the body's value (a Decoder never
//     looked past it: `[...] x` used to pass).
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

// LineReq is a /v1/read or /v1/write request as the server decodes it.
// Addr is a pointer so a missing address stays distinguishable from 0.
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

// Telemetry is the daemon-side view: uptime and live queue gauges
// (shard indices are global across instances).
type Telemetry struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Gauges        []obs.ShardGauge `json:"gauges"`
}

// Cluster is the SLO view: the instance count, per-class latency
// quantiles, and the Jain fairness index over per-tenant throughput.
type Cluster struct {
	Instances    int                     `json:"instances"`
	Classes      []cluster.ClassSnapshot `json:"classes"`
	JainFairness float64                 `json:"jain_fairness"`
}
