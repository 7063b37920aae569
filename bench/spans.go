package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"attache/internal/loadgen"
	"attache/internal/shard"
)

// span is one timed interval of the traced pass. A layer's self time is
// its span's duration minus the part its child spans cover.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into spans; -1 for a root
	Event  int    `json:"event"`  // ring index of the event it served
}

// traceFile is what -out writes as trace.<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// tracer collects spans in memory until the pass ends. The live rung
// records from the client goroutine and from the server's.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, event int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		event = t.spans[parent].Event
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Event: event})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// total is the summed duration of every span of the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

const (
	spanEvent     = "bench.event"      // one ring event at the load generator, read-back check included
	spanDoCtx     = "client.DoCtx"     // the client call (Read/Write/DoCtx)
	spanRoundTrip = "client.roundtrip" // http.RoundTripper until the response body is read
	spanHandler   = "serve.handler"    // serve.Server.Handler().ServeHTTP, in the server
)

// spanHeader carries the round-trip span's index to the server, so the
// handler span can name its parent.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

// tracedTarget opens a client.DoCtx span around each submission of an
// event and passes it down in the context.
type tracedTarget struct {
	inner  loadgen.Target
	tr     *tracer
	parent int // the open bench.event span, set by the rung loop; -1 outside events
}

func (t *tracedTarget) DoCtx(ctx context.Context, ops []shard.Op) ([]shard.Result, error) {
	if t.parent < 0 {
		return t.inner.DoCtx(ctx, ops)
	}
	s := t.tr.begin(spanDoCtx, t.parent, 0)
	defer t.tr.end(s)
	return t.inner.DoCtx(context.WithValue(ctx, spanKey{}, s), ops)
}

// capturedRequest is one HTTP request the client made, kept so that the
// serve rung can replay it into the handler without a socket.
type capturedRequest struct {
	method, path string
	body         []byte
}

// spanTransport times each HTTP round trip (to the end of the response
// body), counts bytes both ways and keeps the request bodies.
type spanTransport struct {
	inner http.RoundTripper
	tr    *tracer

	mu        sync.Mutex
	requests  []capturedRequest
	reqBytes  int64
	respBytes int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, traced := req.Context().Value(spanKey{}).(int)
	if !traced { // prefill: not part of the measured events
		return t.inner.RoundTrip(req)
	}
	s := t.tr.begin(spanRoundTrip, parent, 0)
	var body []byte
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			body, _ = io.ReadAll(rc) // an in-memory reader: cannot fail
			rc.Close()
		}
	}
	t.mu.Lock()
	t.requests = append(t.requests, capturedRequest{req.Method, req.URL.Path, body})
	t.reqBytes += int64(len(body))
	t.mu.Unlock()

	req = req.Clone(req.Context()) // a RoundTripper may not modify its request
	req.Header.Set(spanHeader, strconv.Itoa(s))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.tr.end(s)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.end(s)
		t.mu.Lock()
		t.respBytes += n
		t.mu.Unlock()
	}}
	return resp, nil
}

// countedBody counts what is read and reports once, when closed.
type countedBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return b.ReadCloser.Close()
}

// spanMiddleware times the daemon's handler per request, as the child
// of the round trip named in the request header, and counts non-2xx.
type spanMiddleware struct {
	tr     *tracer
	mu     sync.Mutex
	non2xx int
}

func (m *spanMiddleware) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil { // prefill: not part of the measured events
			next.ServeHTTP(w, r)
			return
		}
		s := m.tr.begin(spanHandler, parent, 0)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		m.tr.end(s)
		if sw.code < 200 || sw.code > 299 {
			m.mu.Lock()
			m.non2xx++
			m.mu.Unlock()
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
