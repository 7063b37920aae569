package main

import "fmt"

// metricDecl declares one metric; BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds (a test compares).
type metricDecl struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd is what a user of the system sees, from the untraced run.
// Every workload reports every one. The timings carry the widest bound
// a benchmark may declare: on the sizing sandbox (2 shared vCPUs) their
// quartile spread over ten seeds was 4-12 % in quiet stretches and twice
// that in noisy ones, and the host drifted by 15-25 % within a quarter of
// an hour. The two counts repeat to well under a third of their bounds;
// what spread they have comes from the seed (README).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_ops_s", "1/s", "higher", 0.25},
	{"event_mid_us", "us", "lower", 0.25},
	{"event_tail_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "1", "lower", 0.05},
	{"bandwidth_savings", "1", "higher", 0.10},
}

// perLayer is what single layers (repository packages) cost and count,
// from the traced pass. No bounds: they explain, they do not gate.
var perLayer = []metricDecl{
	{name: "client.self_us_per_event", unit: "us", better: "lower"},
	{name: "client.wire_us_per_event", unit: "us", better: "lower"},
	{name: "client.allocs_per_event", unit: "1", better: "lower"},
	{name: "client.req_bytes_per_op", unit: "B", better: "lower"},
	{name: "client.resp_bytes_per_op", unit: "B", better: "lower"},
	{name: "client.retries", unit: "count", better: "lower"},
	{name: "serve.handler_us_per_event", unit: "us", better: "lower"},
	{name: "serve.self_us_per_event", unit: "us", better: "lower"},
	{name: "serve.allocs_per_event", unit: "1", better: "lower"},
	{name: "serve.non2xx", unit: "count", better: "lower"},
	{name: "cluster.self_us_per_event", unit: "us", better: "lower"},
	{name: "cluster.shed_quota", unit: "count", better: "lower"},
	{name: "shard.self_us_per_event", unit: "us", better: "lower"},
	{name: "shard.allocs_per_event", unit: "1", better: "lower"},
	{name: "shard.sheds", unit: "count", better: "lower"},
	{name: "shard.canceled", unit: "count", better: "lower"},
	{name: "tier.self_us_per_op", unit: "us", better: "lower"},
	{name: "tier.near_hit_ratio", unit: "1", better: "higher"},
	{name: "tier.promotions_per_op", unit: "1", better: "lower"},
	{name: "tier.demotions_per_op", unit: "1", better: "lower"},
	{name: "tier.far_link_bytes_per_op", unit: "B", better: "lower"},
	{name: "core.read_us_per_op", unit: "us", better: "lower"},
	{name: "core.write_us_per_op", unit: "us", better: "lower"},
	{name: "core.allocs_per_read", unit: "1", better: "lower"},
	{name: "core.allocs_per_write", unit: "1", better: "lower"},
	{name: "core.blocks_per_read", unit: "1", better: "lower"},
	{name: "core.blocks_per_write", unit: "1", better: "lower"},
	{name: "core.mispredicts_per_read", unit: "1", better: "lower"},
	{name: "core.ra_accesses_per_op", unit: "1", better: "lower"},
	{name: "core.compressed_line_ratio", unit: "1", better: "higher"},
	{name: "core.live_heap_bytes_per_line", unit: "B", better: "lower"},
	{name: "compress.compress_ns_per_line", unit: "ns", better: "lower"},
	{name: "compress.decompress_ns_per_line", unit: "ns", better: "lower"},
	{name: "compress.allocs_per_line", unit: "1", better: "lower"},
	{name: "compress.compressible_share", unit: "1", better: "higher"},
	{name: "scramble.apply_ns_per_line", unit: "ns", better: "lower"},
	{name: "blem.pack_ns_per_line", unit: "ns", better: "lower"},
	{name: "blem.classify_ns_per_line", unit: "ns", better: "lower"},
	{name: "blem.collisions_per_mline", unit: "1", better: "lower"},
	{name: "copr.predict_update_ns_per_read", unit: "ns", better: "lower"},
	{name: "copr.accuracy", unit: "1", better: "higher"},
	{name: "snap.encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "snap.decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "snap.bytes_per_line", unit: "B", better: "lower"},
	{name: "loadgen.plan_us_per_event", unit: "us", better: "lower"},
	{name: "workload.compose_us_per_event", unit: "us", better: "lower"},
	{name: "trace.next_ns_per_ref", unit: "ns", better: "lower"},
	{name: "sim.step_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.events_per_memref", unit: "1", better: "lower"},
	{name: "dram.submit_ns_per_req", unit: "ns", better: "lower"},
	{name: "dram.row_hit_rate", unit: "1", better: "higher"},
	{name: "mdcache.access_ns", unit: "ns", better: "lower"},
	{name: "mdcache.hit_rate", unit: "1", better: "higher"},
	{name: "memctrl.host_ns_per_memref", unit: "ns", better: "lower"},
	{name: "memctrl.requests_per_memref", unit: "1", better: "lower"},
	{name: "memctrl.correction_reads_per_read", unit: "1", better: "lower"},
	{name: "cache.llc_miss_rate", unit: "1", better: "lower"},
	{name: "cpu.sim_ipc", unit: "1", better: "higher"},
	{name: "exp.host_ns_per_memref", unit: "ns", better: "lower"},
	{name: "exp.self_ns_per_memref", unit: "ns", better: "lower"},
	{name: "exp.allocs_per_memref", unit: "1", better: "lower"},
	{name: "exp.speedup_attache", unit: "1", better: "higher"},
	{name: "bench.trace_overhead_ratio", unit: "1", better: "lower"},
	{name: "bench.ladder_reconcile_ratio", unit: "1", better: "lower"},
	{name: "bench.verified_reads", unit: "count", better: "higher"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// set records a declared metric under its declared unit.
func (r *record) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared in metrics.go", name))
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// missing lists the declared metrics of the record's pass it lacks.
func (r *record) missing() []string {
	decls := endToEnd
	if r.Traced {
		decls = perLayer
	}
	var out []string
	for _, d := range decls {
		if _, ok := r.Metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
