package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"attache/internal/shard"
	"attache/internal/stats"
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
	hists map[string]*latencyHist

	mu    sync.Mutex
	codes map[string]map[int]uint64
}

func newMetricsSet(endpoints ...string) *metricsSet {
	m := &metricsSet{
		hists: make(map[string]*latencyHist, len(endpoints)),
		codes: make(map[string]map[int]uint64, len(endpoints)),
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

// renderMetrics emits the Prometheus text exposition (version 0.0.4) for
// the engine snapshot plus the HTTP-layer counters.
func (s *Server) renderMetrics() string {
	snap := s.cl.EngineSnapshot()
	var b strings.Builder

	// Every engine, robust and tier counter is rendered from its struct
	// field's prom/help tags; only what no stats struct holds — ratios
	// derived from several fields and daemon-level facts — is named here.
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	stats.WriteProm(&b, snap.Total)
	stats.WriteProm(&b, snap.Robust)
	gauge("attached_compressed_line_ratio", "Fraction of stored lines compressed.", snap.Total.CompressedLineRatio())
	gauge("attached_bandwidth_savings_ratio", "Fraction of sub-rank transfers avoided vs uncompressed.", snap.Total.BandwidthSavings())
	gauge("attached_sram_overhead_bytes", "Summed predictor+CID SRAM across shards.", float64(snap.SRAMBytes))
	gauge("attached_shards", "Configured shard count.", float64(s.cl.Shards()))
	gauge("attached_uptime_seconds", "Seconds since the daemon started serving.", time.Since(s.started).Seconds())
	gauge("attached_cluster_instances", "Engine instances behind the router.", float64(s.cl.Instances()))
	gauge("attached_cluster_jain_fairness", "Jain fairness index over per-tenant successful throughput.", s.cl.JainFairness())
	if snap.Tiers != nil {
		stats.WriteProm(&b, *snap.Tiers)
	}

	s.renderPerShard(&b, snap)
	s.renderTenants(&b)
	s.renderHTTP(&b)
	return b.String()
}

// renderTenants emits per-tenant op counters; absent until the first op
// arrives. Untenanted traffic is booked too, as tenant "".
func (s *Server) renderTenants(b *strings.Builder) {
	tenants := s.cl.TenantSnapshots()
	if len(tenants) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP attached_tenant_ops_total Ops submitted, per tenant (including shed ops).\n# TYPE attached_tenant_ops_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(b, "attached_tenant_ops_total{tenant=%q,class=%q} %d\n", t.Tenant, t.Class, t.Ops)
	}
	fmt.Fprintf(b, "# HELP attached_tenant_shed_quota_total Ops refused by per-tenant admission control.\n# TYPE attached_tenant_shed_quota_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(b, "attached_tenant_shed_quota_total{tenant=%q,class=%q} %d\n", t.Tenant, t.Class, t.ShedQuota)
	}
}

func (s *Server) renderPerShard(b *strings.Builder, snap shard.Snapshot) {
	fmt.Fprintf(b, "# HELP attached_shard_reads_total Line reads served, per shard.\n# TYPE attached_shard_reads_total counter\n")
	for i, sh := range snap.PerShard {
		fmt.Fprintf(b, "attached_shard_reads_total{shard=\"%d\"} %d\n", i, sh.Reads)
	}
	fmt.Fprintf(b, "# HELP attached_shard_lines Distinct lines stored, per shard.\n# TYPE attached_shard_lines gauge\n")
	for i, sh := range snap.PerShard {
		fmt.Fprintf(b, "attached_shard_lines{shard=\"%d\"} %d\n", i, sh.Lines)
	}

	gauges := s.cl.Gauges()
	fmt.Fprintf(b, "# HELP attached_shard_queue_depth Tasks buffered in the shard's pipeline queue.\n# TYPE attached_shard_queue_depth gauge\n")
	for _, g := range gauges {
		fmt.Fprintf(b, "attached_shard_queue_depth{shard=\"%d\"} %d\n", g.Shard, g.QueueDepth)
	}
	fmt.Fprintf(b, "# HELP attached_shard_inflight Tasks admitted to the shard but not yet completed.\n# TYPE attached_shard_inflight gauge\n")
	for _, g := range gauges {
		fmt.Fprintf(b, "attached_shard_inflight{shard=\"%d\"} %d\n", g.Shard, g.InFlight)
	}
	fmt.Fprintf(b, "# HELP attached_shard_last_batch_ops Ops in the shard's most recently dequeued batch.\n# TYPE attached_shard_last_batch_ops gauge\n")
	for _, g := range gauges {
		fmt.Fprintf(b, "attached_shard_last_batch_ops{shard=\"%d\"} %d\n", g.Shard, g.LastBatchOps)
	}
}

func (s *Server) renderHTTP(b *strings.Builder) {
	m := s.metrics
	endpoints := make([]string, 0, len(m.hists))
	for ep := range m.hists {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	fmt.Fprintf(b, "# HELP attached_http_requests_total HTTP requests served, by endpoint and status code.\n# TYPE attached_http_requests_total counter\n")
	m.mu.Lock()
	for _, ep := range endpoints {
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
	for _, ep := range endpoints {
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
