package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"attache/client"
	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/shard"
	"attache/internal/workload"
)

// TestRecordMiddlewareCapturesOfferedLoad: every op the data endpoints
// offer to the engine lands in the capture — in submission order, with
// payloads, including ops the engine rejects (recording sits before
// admission, so a replay re-offers the same load, not the same luck).
func TestRecordMiddlewareCapturesOfferedLoad(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 2, MaxLines: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	var buf bytes.Buffer
	tw := workload.NewTraceWriter(&buf)
	srv := New(eng, Config{Record: tw})
	h := srv.Handler()

	line := testLine(0x5A)
	if w := do(t, h, "POST", "/v1/write", fmt.Sprintf(`{"addr":7,"data":%q}`, b64(line))); w.Code != 200 {
		t.Fatalf("write: %d %s", w.Code, w.Body)
	}
	if w := do(t, h, "POST", "/v1/read", `{"addr":7}`); w.Code != 200 {
		t.Fatalf("read: %d %s", w.Code, w.Body)
	}
	// A never-written read fails — but the offer is still recorded.
	if w := do(t, h, "POST", "/v1/read", `{"addr":9999}`); w.Code != 404 {
		t.Fatalf("missing read: %d %s", w.Code, w.Body)
	}
	// Malformed requests never reach the engine, so they are not offered
	// load and must not pollute the capture.
	if w := do(t, h, "POST", "/v1/read", `{"addr":`); w.Code != 400 {
		t.Fatalf("bad json read: %d", w.Code)
	}
	batch := fmt.Sprintf(`{"op":"write","addr":11,"data":%q}`+"\n"+`{"op":"read","addr":7}`, b64(line))
	if w := do(t, h, "POST", "/v1/batch", batch); w.Code != 200 {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}

	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := workload.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []loadgen.Event{
		{Kind: loadgen.Write, Ops: []shard.Op{{Write: true, Addr: 7, Data: line}}},
		{Kind: loadgen.Read, Ops: []shard.Op{{Addr: 7}}},
		{Kind: loadgen.Read, Ops: []shard.Op{{Addr: 9999}}},
		{Kind: loadgen.Batch, Ops: []shard.Op{{Write: true, Addr: 11, Data: line}, {Addr: 7}}},
	}
	if len(events) != len(want) {
		t.Fatalf("captured %d events, want %d", len(events), len(want))
	}
	for i := range want {
		got := events[i]
		got.At = 0 // wall clock; compare content only
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("event %d:\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestTraceRecordReplayConservation is the end-to-end acceptance pass
// for record/replay: a live daemon records a scenario driven over real
// HTTP, the capture decodes to the exact op sequence that was offered
// (OpChecksum equality), and replaying it against a fresh identical
// engine conserves everything the live run observed — op counts,
// success counts, error taxonomy, and engine totals. Runs under -race
// in CI's tracing-race job, which exercises the recorder's
// every-request-goroutine locking.
func TestTraceRecordReplayConservation(t *testing.T) {
	spec, err := workload.Preset("write-burst", 31, 400)
	if err != nil {
		t.Fatal(err)
	}
	events, err := workload.Compose(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadgen.Config{
		Concurrency: 1, // sequential offers: capture order == plan order
		AddrSpace:   spec.AddrSpace,
		Prefill:     -1, // the capture must be exactly the offered load
	}

	newEngine := func() *shard.Engine {
		opts := core.DefaultOptions()
		opts.Seed = spec.Seed
		eng, err := shard.New(opts, shard.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}

	// Live leg: scenario → HTTP client → recording daemon → engine A.
	liveEng := newEngine()
	var capture bytes.Buffer
	tw := workload.NewTraceWriter(&capture)
	ts := httptest.NewServer(New(liveEng, Config{Record: tw}).Handler())
	t.Cleanup(ts.Close)
	liveRep, err := loadgen.RunEvents(context.Background(), client.New(ts.URL, client.WithRetry(0)), cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	// The capture must decode to the op sequence that was offered.
	decoded, err := workload.DecodeTrace(bytes.NewReader(capture.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("capture has %d events, offered %d", len(decoded), len(events))
	}
	if got, want := workload.OpChecksum(decoded), workload.OpChecksum(events); got != want {
		t.Fatalf("capture op checksum %s, offered plan %s — recorded traffic is not the offered traffic", got, want)
	}

	// Replay leg: decoded capture → fresh identical engine B, in-process.
	replayEng := newEngine()
	replayRep, err := loadgen.RunEvents(context.Background(), replayEng, cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}

	// Conservation: the replay run observes exactly what the live run did.
	if liveRep.Ops != replayRep.Ops || liveRep.OpsOK != replayRep.OpsOK {
		t.Fatalf("op conservation broken: live %d/%d ok, replay %d/%d ok",
			liveRep.Ops, liveRep.OpsOK, replayRep.Ops, replayRep.OpsOK)
	}
	if !reflect.DeepEqual(liveRep.Errors, replayRep.Errors) {
		t.Fatalf("error taxonomy not conserved:\nlive   %v\nreplay %v", liveRep.Errors, replayRep.Errors)
	}
	liveSnap, replaySnap := liveEng.StatsSnapshot().Total, replayEng.StatsSnapshot().Total
	if liveSnap.Reads != replaySnap.Reads || liveSnap.Writes != replaySnap.Writes || liveSnap.Lines != replaySnap.Lines {
		t.Fatalf("engine totals not conserved: live reads/writes/lines %d/%d/%d, replay %d/%d/%d",
			liveSnap.Reads, liveSnap.Writes, liveSnap.Lines,
			replaySnap.Reads, replaySnap.Writes, replaySnap.Lines)
	}
	if liveSnap.CompressedLineRatio() != replaySnap.CompressedLineRatio() {
		t.Fatalf("compression ratio not conserved: live %g, replay %g",
			liveSnap.CompressedLineRatio(), replaySnap.CompressedLineRatio())
	}
}
