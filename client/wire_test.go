package client

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"attache"
	"attache/internal/shard"
	"attache/internal/wire"
)

// batch64 is the wire-batch workload's event: 64 ops, three reads in
// four, over lines 0..63 (which it writes through c first).
func batch64(t testing.TB, c *Client) []attache.Op {
	t.Helper()
	prefill, ops := make([]attache.Op, 64), make([]attache.Op, 64)
	for i := range ops {
		prefill[i] = attache.Op{Write: true, Addr: uint64(i), Data: testLine(byte(i))}
		ops[i] = attache.Op{Addr: uint64(i)}
		if i%4 == 0 {
			ops[i] = prefill[i]
		}
	}
	if res, err := c.Do(context.Background(), prefill); err != nil || res[63].Err != nil {
		t.Fatalf("prefill: %v", err)
	}
	return ops
}

func newBenchDaemon(t testing.TB) *Client {
	ts, _ := newDaemon(t, shard.Config{Shards: 2})
	return New(ts.URL, fastOpts()...)
}

// TestBatchResultsOwnTheirSlab: the slab behind a Do's read results is
// that call's own — a thousand further calls over the same lines, which
// recycle the response buffer every time, leave earlier results byte for
// byte as they were — and each Data is exactly its 64-byte slot.
func TestBatchResultsOwnTheirSlab(t *testing.T) {
	c := newBenchDaemon(t)
	ops := batch64(t, c)
	ctx := context.Background()
	kept, err := c.Do(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for i, r := range kept {
			switch {
			case r.Err != nil:
				t.Fatalf("%s: op %d: %v", when, i, r.Err)
			case ops[i].Write && r.Data != nil:
				t.Fatalf("%s: write %d carries data", when, i)
			case !ops[i].Write && i != 1 && !bytes.Equal(r.Data, testLine(byte(i))):
				t.Fatalf("%s: read %d is %x", when, i, r.Data)
			case !ops[i].Write && cap(r.Data) != attache.LineSize:
				t.Fatalf("%s: read %d has capacity %d", when, i, cap(r.Data))
			}
		}
	}
	check("as returned")
	_ = append(kept[2].Data, 0xFF)
	for j := range kept[1].Data {
		kept[1].Data[j] = 0xFF
	}
	check("after scribbling over result 1")
	for round := 0; round < 1000; round++ {
		for i := range ops {
			if ops[i].Write {
				ops[i].Data = testLine(byte(round))
			}
		}
		if res, err := c.Do(ctx, ops); err != nil || !bytes.Equal(res[5].Data, testLine(5)) {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	check("after 1000 further calls")
}

// TestBatchResponseShapes: what parseBatchResponse makes of answers a
// well-behaved daemon never sends.
func TestBatchResponseShapes(t *testing.T) {
	line := testLine(9)
	ops := []attache.Op{{Addr: 1}, {Write: true, Addr: 2, Data: line}}
	res := func(rs ...wire.OpResult) []byte { return wire.AppendBatch(nil, wire.Batch{Results: rs}) }

	// A line where a write's "ok" belongs, and a short one for the read:
	// both arrive, neither through the slab.
	got, err := parseBatchResponse(res(wire.OpResult{Addr: 1, Data: line[:5]}, wire.OpResult{Addr: 2, Data: line}), ops)
	if err != nil || !bytes.Equal(got[0].Data, line[:5]) || !bytes.Equal(got[1].Data, line) {
		t.Fatalf("odd payloads: %v %v", got, err)
	}
	for name, body := range map[string][]byte{
		"too few results":  res(wire.OpResult{Addr: 1, Data: line}),
		"too many results": res(wire.OpResult{Addr: 1, Data: line}, wire.OpResult{Addr: 2, OK: true}, wire.OpResult{Addr: 3, OK: true}),
		"torn":             res(wire.OpResult{Addr: 1, Data: line}, wire.OpResult{Addr: 2, OK: true})[:40],
		"not a batch":      []byte(`[1,2]`),
	} {
		if got, err := parseBatchResponse(body, ops); err == nil {
			t.Errorf("%s: accepted as %v", name, got)
		}
	}
	got, err = parseBatchResponse(res(wire.OpResult{Addr: 1, Error: "core: line 0x1: " + attache.ErrNeverWritten.Error()}, wire.OpResult{Addr: 2, OK: true}), ops)
	if err != nil || got[0].Data != nil || !strings.Contains(got[0].Err.Error(), "0x1") {
		t.Fatalf("per-op error: %v %v", got, err)
	}
}

// TestBatchCodecAllocationBudget pins the two halves of Do that are the
// client's own: rendering a 64-op request into a buffer with room
// allocates nothing, and parsing its answer allocates the result slice
// and the slab — two, whatever the batch size.
func TestBatchCodecAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := newBenchDaemon(t)
	ops := batch64(t, c)
	var results []wire.OpResult
	for i, op := range ops {
		results = append(results, wire.OpResult{Addr: op.Addr, OK: op.Write})
		if !op.Write {
			results[i].Data = testLine(byte(i))
		}
	}
	resp := wire.AppendBatch(nil, wire.Batch{Results: results})
	buf := appendBatchRequest(nil, ops)
	if n := testing.AllocsPerRun(100, func() { buf = appendBatchRequest(buf[:0], ops) }); n != 0 {
		t.Errorf("rendering a 64-op request allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { appendBatchRequest(nil, ops) }); n != 1 {
		t.Errorf("rendering a 64-op request from nothing allocates %.1f times, want 1 (the body, sized up front)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := parseBatchResponse(resp, ops); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("parsing a 64-op answer allocates %.1f times, want 2 (results and slab)", n)
	}
}

// BenchmarkClientLoopbackBatch64 is the top rung of the ladder: one 64-op
// batch from Client.Do through a real loopback listener, the daemon's
// handler and a 2-shard engine, and back.
func BenchmarkClientLoopbackBatch64(b *testing.B) {
	c := newBenchDaemon(b)
	ops := batch64(b, c)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Do(ctx, ops)
		if err != nil || res[63].Err != nil {
			b.Fatal(err)
		}
	}
}
