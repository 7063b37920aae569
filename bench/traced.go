package main

import (
	"context"
	"fmt"
)

// ladderRingOf names the workload whose ring drives the serving ladder of
// sim-sweep's traced pass. sim-sweep has no serving events of its own, but
// every traced pass reports every per-layer metric, so it borrows the
// engine's read-heavy ring; the simulator ladder runs on every pass alike.
const ladderRingOf = "engine-read"

// runTraced is the traced pass: single-client ladders over the serving
// stack and the simulator that fill every per-layer metric, with spans
// kept in memory at every boundary the live HTTP rung crosses.
func runTraced(ctx context.Context, name string, seed int64, seconds float64) (*record, *traceFile, error) {
	rec := newRecord(name, seed, seconds, true)
	w := findServing(name)
	if w == nil {
		w = findServing(ladderRingOf)
	}
	r, err := w.build(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	l := &ladder{r: r, evs: ladderSlice(r), model: newExactModel(r), tier: w.tier}

	// Live first: the serve rung replays the requests it captures.
	steps := []func(context.Context) error{
		func(ctx context.Context) error { return l.runLive(ctx, w, true) },
		func(ctx context.Context) error { return l.runLive(ctx, w, false) },
		l.runServe, l.runCluster, l.runShard, l.runTier, l.runCore,
		func(context.Context) error { return l.checkEqualBlocks() },
		func(context.Context) error { return codecRungs(rec, r, l.evs) },
		func(context.Context) error { return generatorRungs(rec, seed) },
		func(context.Context) error { return simLadder(rec, seed) },
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			// A rung that cannot finish leaves per-layer metrics unset;
			// the run has no result to print.
			return nil, nil, err
		}
	}
	l.report(rec)
	if missing := rec.missing(); len(missing) > 0 {
		return nil, nil, fmt.Errorf("traced pass left metrics unset: %v", missing)
	}
	return rec, &traceFile{Workload: name, Seed: seed, Spans: l.tr.spans}, nil
}

// report turns the rungs into per-layer metrics: a layer's self time is
// its rung minus the rung below.
func (l *ladder) report(rec *record) {
	events := float64(len(l.evs))
	ops := float64(l.core.ops)
	perEventUS := func(r rung) float64 { return micros(r.wall) / events }
	perEventAllocs := func(r rung) float64 { return float64(r.mallocs) / events }
	base := l.core // what the engine rungs sit on
	if l.tier != nil {
		base = l.tiered
	}

	// Every rung replayed the slice once; reads were compared byte for
	// byte on all but the serve rung (status only: same requests as live).
	rungs := []rung{l.live, l.liveUntraced, l.serve, l.cluster, l.shard, l.tiered, l.core}
	for _, r := range rungs {
		rec.Attempted += uint64(r.ops)
	}
	rec.set("bench.verified_reads", float64(l.model.reads))

	// client / serve: spans of the live rung.
	doCtx, roundTrip, handler := l.tr.total(spanDoCtx), l.tr.total(spanRoundTrip), l.tr.total(spanHandler)
	rec.set("client.self_us_per_event", micros(doCtx-roundTrip)/events)
	rec.set("client.wire_us_per_event", micros(roundTrip-handler)/events)
	rec.set("serve.handler_us_per_event", micros(handler)/events)
	// Allocations above the handler (client and net/http on both sides),
	// from the untraced twin so that span bookkeeping is not counted.
	rec.set("client.allocs_per_event", perEventAllocs(l.liveUntraced)-perEventAllocs(l.serve))
	rec.set("client.req_bytes_per_op", float64(l.transport.reqBytes)/ops)
	rec.set("client.resp_bytes_per_op", float64(l.transport.respBytes)/ops)
	rec.set("client.retries", float64(len(l.transport.requests)-len(l.evs)))
	rec.set("serve.non2xx", float64(l.middleware.non2xx))
	rec.set("serve.self_us_per_event", perEventUS(l.serve)-perEventUS(l.cluster))
	rec.set("serve.allocs_per_event", perEventAllocs(l.serve)-perEventAllocs(l.cluster))

	rec.set("cluster.self_us_per_event", perEventUS(l.cluster)-perEventUS(l.shard))
	rec.set("cluster.shed_quota", float64(l.shedQuota))
	rec.set("shard.self_us_per_event", perEventUS(l.shard)-perEventUS(base))
	rec.set("shard.allocs_per_event", perEventAllocs(l.shard)-perEventAllocs(base))
	rec.set("shard.sheds", float64(l.robust.Sheds))
	rec.set("shard.canceled", float64(l.robust.Canceled))

	// core: reads alone are priced by the re-read pass over the filled
	// Memory; writes take what is left of the rung.
	cs := l.coreRun
	reads, writes := float64(l.rereadN), ops-float64(l.rereadN)
	readUS := per(micros(l.rereads.wall), reads)
	writeUS := per(micros(l.core.wall)-readUS*reads, writes)
	rec.set("core.read_us_per_op", readUS)
	rec.set("core.write_us_per_op", writeUS)
	allocsPerRead := per(float64(l.rereads.mallocs), reads)
	rec.set("core.allocs_per_read", allocsPerRead)
	// The replay's allocations include one result slice per event.
	rec.set("core.allocs_per_write", per(float64(l.core.mallocs)-events-allocsPerRead*reads, writes))
	rec.set("core.blocks_per_read", per(float64(cs.BlocksRead), float64(cs.Reads)))
	rec.set("core.blocks_per_write", per(float64(cs.BlocksWritten), float64(cs.Writes)))
	rec.set("core.mispredicts_per_read", per(float64(cs.Mispredictions), float64(cs.Reads)))
	rec.set("core.ra_accesses_per_op", per(float64(cs.RAAccesses), float64(cs.Reads+cs.Writes)))
	rec.set("core.compressed_line_ratio", l.coreStats.CompressedLineRatio())
	rec.set("core.live_heap_bytes_per_line", per(float64(l.coreHeap), float64(l.coreStats.Lines)))
	rec.set("copr.accuracy", l.coreStats.PredictionAccuracy)

	// tier: what the tier rung took beyond the far-memory work it caused,
	// priced at the core rung's per-op costs.
	ts := l.tierRun
	tierOps := float64(ts.NearReads + ts.NearWrites + ts.FarReads + ts.FarWrites)
	farUS := float64(l.tierFarRun.Reads)*readUS + float64(l.tierFarRun.Writes)*writeUS
	rec.set("tier.self_us_per_op", per(micros(l.tiered.wall)-farUS, ops))
	rec.set("tier.near_hit_ratio", per(float64(ts.NearReads+ts.NearWrites), tierOps))
	rec.set("tier.promotions_per_op", per(float64(ts.Promotions), tierOps))
	rec.set("tier.demotions_per_op", per(float64(ts.Demotions), tierOps))
	rec.set("tier.far_link_bytes_per_op", per(ts.FarLinkBytes, tierOps))

	mb := float64(l.snapBytes) / 1e6
	rec.set("snap.encode_mb_s", per(mb, l.snapEncode.Seconds()))
	rec.set("snap.decode_mb_s", per(mb, l.snapDecode.Seconds()))
	rec.set("snap.bytes_per_line", per(float64(l.snapBytes), float64(l.snapLines)))

	rec.set("bench.trace_overhead_ratio", per(float64(l.live.wall), float64(l.liveUntraced.wall)))
	// The replayed serve rung against the live handler span: if the two
	// disagree the ladder's subtraction does not describe the live stack.
	reconcile := per(float64(l.serve.wall), float64(handler))
	rec.set("bench.ladder_reconcile_ratio", reconcile)
	if reconcile < 0.8 || reconcile > 1.25 {
		rec.Notes["ladder"] = fmt.Sprintf("WRONG: replayed serve rung is %.2fx the live handler span, outside [0.8, 1.25]; the rungs do not add up", reconcile)
	}
}
