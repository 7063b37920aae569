package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/stats"
	"attache/internal/wire"
)

// latencyBuckets are the upper bounds (seconds) of the per-endpoint
// request-duration histograms, exponential from 100µs to 2.5s; slower
// requests land in +Inf.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// latencyHist is a fixed-bucket histogram with atomic counters, so the
// request hot path never takes a lock to observe a duration.
type latencyHist struct {
	buckets [len(latencyBuckets) + 1]atomic.Uint64 // last bucket is +Inf
	sumNano atomic.Uint64
	count   atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], sec)
	h.buckets[i].Add(1)
	h.sumNano.Add(uint64(d.Nanoseconds()))
	h.count.Add(1)
}

// metricsSet tracks per-endpoint request counts (by status code) and
// latency histograms. Endpoints are registered up front, so the map is
// read-only after construction; only the code counters need a lock.
type metricsSet struct {
	endpoints []string // sorted
	hists     map[string]*latencyHist

	mu    sync.Mutex
	codes map[string]map[int]uint64
}

func newMetricsSet(endpoints ...string) *metricsSet {
	sort.Strings(endpoints)
	m := &metricsSet{
		endpoints: endpoints,
		hists:     make(map[string]*latencyHist, len(endpoints)),
		codes:     make(map[string]map[int]uint64, len(endpoints)),
	}
	for _, ep := range endpoints {
		m.hists[ep] = &latencyHist{}
		m.codes[ep] = make(map[int]uint64)
	}
	return m
}

func (m *metricsSet) observe(endpoint string, code int, d time.Duration) {
	if h, ok := m.hists[endpoint]; ok {
		h.observe(d)
	}
	m.mu.Lock()
	if c, ok := m.codes[endpoint]; ok {
		c[code]++
	}
	m.mu.Unlock()
}

// statsDoc builds the /v1/stats document (wire.Stats, schema v2), which
// /metrics renders too. It snapshots each instance once and merges those
// same snapshots, so the totals are the sum of the instances it reports.
func (s *Server) statsDoc() wire.Stats {
	per := s.cl.PerInstanceSnapshots()
	merged := cluster.Merge(per)
	return wire.Stats{
		SchemaVersion: 2,
		Engine: wire.Engine{
			Shards:              s.cl.Shards(),
			SRAMBytes:           merged.SRAMBytes,
			CompressedLineRatio: merged.Total.CompressedLineRatio(),
			BandwidthSavings:    merged.Total.BandwidthSavings(),
			Total:               merged.Total,
			PerInstance:         per,
			Tiers:               merged.Tiers,
		},
		Robust:    merged.Robust,
		Telemetry: wire.Telemetry{UptimeSeconds: time.Since(s.started).Seconds(), Gauges: s.cl.Gauges()},
		Cluster: wire.Cluster{
			Instances:    s.cl.Instances(),
			Classes:      s.cl.ClassSnapshots(),
			JainFairness: s.cl.JainFairness(),
		},
		Tenants: s.cl.TenantSnapshots(),
	}
}

// renderMetrics writes the Prometheus text exposition (version 0.0.4):
// the /v1/stats document through its struct tags (stats.WriteProm), then
// the per-shard counters and the HTTP layer, which the document does not
// carry.
func (s *Server) renderMetrics(w io.Writer) {
	doc := s.statsDoc()
	stats.WriteProm(w, doc)
	renderPerShard(w, doc.Engine.PerInstance)
	s.renderHTTP(w)
}

// renderPerShard numbers shards across instances in order, as the
// document's shard gauges do.
func renderPerShard(b io.Writer, per []shard.Snapshot) {
	var shards []core.StatsSnapshot
	for _, inst := range per {
		shards = append(shards, inst.PerShard...)
	}
	fmt.Fprintf(b, "# HELP attached_shard_reads_total Line reads served, per shard.\n# TYPE attached_shard_reads_total counter\n")
	for i, sh := range shards {
		fmt.Fprintf(b, "attached_shard_reads_total{shard=\"%d\"} %d\n", i, sh.Reads)
	}
	fmt.Fprintf(b, "# HELP attached_shard_lines Distinct lines stored, per shard.\n# TYPE attached_shard_lines gauge\n")
	for i, sh := range shards {
		fmt.Fprintf(b, "attached_shard_lines{shard=\"%d\"} %d\n", i, sh.Lines)
	}
}

func (s *Server) renderHTTP(b io.Writer) {
	m := s.metrics
	fmt.Fprintf(b, "# HELP attached_http_requests_total HTTP requests served, by endpoint and status code.\n# TYPE attached_http_requests_total counter\n")
	m.mu.Lock()
	for _, ep := range m.endpoints {
		codes := make([]int, 0, len(m.codes[ep]))
		for c := range m.codes[ep] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(b, "attached_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, m.codes[ep][c])
		}
	}
	m.mu.Unlock()

	fmt.Fprintf(b, "# HELP attached_http_request_duration_seconds HTTP request latency, by endpoint.\n# TYPE attached_http_request_duration_seconds histogram\n")
	for _, ep := range m.endpoints {
		h := m.hists[ep]
		var cum uint64
		for i, le := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(b, "attached_http_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", ep, le, cum)
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(b, "attached_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(b, "attached_http_request_duration_seconds_sum{endpoint=%q} %g\n", ep, float64(h.sumNano.Load())/1e9)
		fmt.Fprintf(b, "attached_http_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.count.Load())
	}
}
