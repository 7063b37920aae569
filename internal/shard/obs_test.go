package shard

import (
	"context"
	"testing"

	"attache/internal/core"
	"attache/internal/obs"
)

// TestSpanTimelineBalanced pins the span contract: every traced
// submission produces, per touched shard, exactly one enqueue, one
// dequeue, and one execute span covering the same op count, plus one
// request-level respond event — and the dequeue/execute spans decompose
// into non-negative queue-wait and service time.
func TestSpanTimelineBalanced(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	line := make([]byte, core.LineSize)
	ops := make([]Op, 32)
	for i := range ops {
		ops[i] = Op{Write: true, Addr: uint64(i * 97), Data: line}
	}
	tr := obs.NewTrace(0xabc)
	ctx := obs.ContextWithTrace(context.Background(), tr)
	res, err := e.DoCtx(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}

	type key struct {
		stage obs.Stage
		shard int
	}
	spans := make(map[key]int) // ops covered per (stage, shard)
	responds := 0
	for _, ev := range tr.Events() {
		if ev.End < ev.Start {
			t.Fatalf("event %v ends before it starts", ev)
		}
		if ev.Stage == obs.StageRespond {
			responds++
			if ev.Shard != -1 || ev.Ops != len(ops) {
				t.Fatalf("respond event = shard %d, ops %d; want -1, %d", ev.Shard, ev.Ops, len(ops))
			}
			continue
		}
		spans[key{ev.Stage, ev.Shard}] += ev.Ops
	}
	if responds != 1 {
		t.Fatalf("got %d respond events, want 1", responds)
	}
	totalPerStage := make(map[obs.Stage]int)
	for k, n := range spans {
		totalPerStage[k.stage] += n
		// Each shard's three stages must agree on the op count.
		if d := spans[key{obs.StageDequeue, k.shard}]; d != spans[key{obs.StageEnqueue, k.shard}] {
			t.Fatalf("shard %d: dequeue covers %d ops, enqueue %d", k.shard, d, spans[key{obs.StageEnqueue, k.shard}])
		}
		if x := spans[key{obs.StageExecute, k.shard}]; x != spans[key{obs.StageEnqueue, k.shard}] {
			t.Fatalf("shard %d: execute covers %d ops, enqueue %d", k.shard, x, spans[key{obs.StageEnqueue, k.shard}])
		}
	}
	for _, st := range []obs.Stage{obs.StageEnqueue, obs.StageDequeue, obs.StageExecute} {
		if totalPerStage[st] != len(ops) {
			t.Fatalf("stage %v covers %d ops total, want %d", st, totalPerStage[st], len(ops))
		}
	}
	qw, sv, tot := tr.Decompose()
	if sv <= 0 {
		t.Fatalf("service time %v, want > 0", sv)
	}
	if tot < qw+0 || tot < sv {
		t.Fatalf("total %v below components (wait %v, service %v)", tot, qw, sv)
	}
}

// TestGaugesTrackQueueState checks the telemetry surface: gauges exist
// per shard, and after traffic the last-batch gauge reflects the final
// submitted batch size.
func TestGaugesTrackQueueState(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	g := e.Gauges()
	if len(g) != 2 || g[0].Shard != 0 || g[1].Shard != 1 {
		t.Fatalf("fresh gauges = %+v", g)
	}
	line := make([]byte, core.LineSize)
	for a := uint64(0); a < 64; a++ {
		if err := e.Write(a, line); err != nil {
			t.Fatal(err)
		}
	}
	var lastBatch, inflight int64
	for _, s := range e.Gauges() {
		if s.LastBatchOps > lastBatch {
			lastBatch = s.LastBatchOps
		}
		inflight += s.InFlight
	}
	if lastBatch != 1 {
		t.Fatalf("last batch gauge = %d after single-op writes, want 1", lastBatch)
	}
	if inflight != 0 {
		t.Fatalf("in-flight gauge = %d after quiescence, want 0", inflight)
	}
}
