package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"attache"
	"attache/internal/obs"
	"attache/internal/serve"
)

// TestTraceRoundTripThroughClient is the acceptance path for the
// observability layer: a request sent through the client with tracing
// on returns a trace ID whose /v1/trace/{id} timeline shows all four
// pipeline stages with the queue-wait + service-time decomposition —
// trace ID surviving engine → HTTP → client and back.
func TestTraceRoundTripThroughClient(t *testing.T) {
	o := obs.New(obs.Config{Seed: 1})
	eng, err := attache.NewEngine(attache.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := httptest.NewServer(serve.New(eng, serve.Config{Obs: o}).Handler())
	defer srv.Close()

	c := New(srv.URL)
	ctx, id := ContextWithTrace(context.Background())
	if id == "" {
		t.Fatal("ContextWithTrace returned an empty ID")
	}
	line := make([]byte, attache.LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	if err := c.Write(ctx, 42, line); err != nil {
		t.Fatal(err)
	}

	tl, err := c.Trace(context.Background(), id)
	if err != nil {
		t.Fatalf("Trace(%s): %v", id, err)
	}
	if tl.TraceID != id {
		t.Fatalf("timeline ID %s, want %s (the client-assigned one)", tl.TraceID, id)
	}
	stages := make(map[string]bool)
	for _, ev := range tl.Events {
		stages[ev.Stage] = true
	}
	for _, want := range []string{"enqueue", "dequeue", "execute", "respond"} {
		if !stages[want] {
			t.Fatalf("timeline missing stage %q: %+v", want, tl.Events)
		}
	}
	if tl.ServiceNanos <= 0 || tl.TotalNanos < tl.ServiceNanos || tl.QueueWaitNanos < 0 {
		t.Fatalf("decomposition inconsistent: wait %d, service %d, total %d ns",
			tl.QueueWaitNanos, tl.ServiceNanos, tl.TotalNanos)
	}

	// A second traced call reuses nothing: distinct ID, distinct timeline.
	ctx2, id2 := ContextWithTrace(context.Background())
	if id2 == id {
		t.Fatalf("ContextWithTrace reissued ID %s", id)
	}
	if _, err := c.Read(ctx2, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(context.Background(), id2); err != nil {
		t.Fatalf("Trace(%s) after read: %v", id2, err)
	}
}

// TestClientSendsTraceHeader pins the wire format: the header goes out
// only when the context carries an ID, and carries it verbatim.
func TestClientSendsTraceHeader(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get(obs.TraceHeader))
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetry(0))
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithTraceID(context.Background(), "00000000000000ab")
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "" || got[1] != "00000000000000ab" {
		t.Fatalf("trace headers seen = %q, want [\"\", \"00000000000000ab\"]", got)
	}
}
