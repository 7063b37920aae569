package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
)

func newTracedServer(t *testing.T, o *obs.Observer) (*Server, *shard.Engine) {
	t.Helper()
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 2, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return New(eng, Config{Obs: o}), eng
}

// TestTraceHeaderRoundTrip is the serve-layer half of the acceptance
// path: a request with an X-Attache-Trace header is traced under that
// ID, the header is echoed, and /v1/trace/{id} returns a timeline with
// all four pipeline stages and the queue-wait/service decomposition.
func TestTraceHeaderRoundTrip(t *testing.T) {
	o := obs.New(obs.Config{Seed: 1})
	srv, _ := newTracedServer(t, o)

	line := base64.StdEncoding.EncodeToString(make([]byte, core.LineSize))
	body := fmt.Sprintf(`{"addr":42,"data":%q}`, line)
	req := httptest.NewRequest(http.MethodPost, "/v1/write", strings.NewReader(body))
	req.Header.Set(obs.TraceHeader, "00000000deadbeef")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("write = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "00000000deadbeef" {
		t.Fatalf("response trace header = %q, want echoed 00000000deadbeef", got)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace/00000000deadbeef", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace lookup = %d: %s", rec.Code, rec.Body)
	}
	var tl obs.Timeline
	if err := json.Unmarshal(rec.Body.Bytes(), &tl); err != nil {
		t.Fatalf("bad timeline JSON: %v", err)
	}
	if tl.TraceID != "00000000deadbeef" {
		t.Fatalf("timeline ID = %s", tl.TraceID)
	}
	stages := make(map[string]int)
	for _, ev := range tl.Events {
		stages[ev.Stage]++
	}
	for _, want := range []string{"enqueue", "dequeue", "execute", "respond"} {
		if stages[want] == 0 {
			t.Fatalf("timeline missing stage %q: %+v", want, tl.Events)
		}
	}
	if tl.ServiceNanos <= 0 {
		t.Fatalf("service time = %d ns, want > 0", tl.ServiceNanos)
	}
	if tl.TotalNanos < tl.ServiceNanos || tl.QueueWaitNanos < 0 {
		t.Fatalf("decomposition inconsistent: wait %d, service %d, total %d",
			tl.QueueWaitNanos, tl.ServiceNanos, tl.TotalNanos)
	}
}

// TestTraceSamplingAndRecent covers the sampled (headerless) path and
// the /v1/trace listing.
func TestTraceSamplingAndRecent(t *testing.T) {
	o := obs.New(obs.Config{SampleRate: 1, Seed: 1})
	srv, _ := newTracedServer(t, o)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/read", strings.NewReader(`{"addr":1}`)))
	// Never-written read: 404 at the HTTP layer, but still traced.
	if rec.Code != http.StatusNotFound {
		t.Fatalf("read = %d", rec.Code)
	}
	id := rec.Header().Get(obs.TraceHeader)
	if id == "" {
		t.Fatal("sampled request carried no trace header")
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace lookup of sampled request = %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace listing = %d", rec.Code)
	}
	var listing struct {
		Traces []obs.Timeline `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil || len(listing.Traces) == 0 {
		t.Fatalf("trace listing empty or bad (%v): %s", err, rec.Body)
	}
}

func TestTraceEndpointErrors(t *testing.T) {
	o := obs.New(obs.Config{Seed: 1})
	srv, _ := newTracedServer(t, o)
	for path, want := range map[string]int{
		"/v1/trace/zz":               http.StatusBadRequest,
		"/v1/trace/00000000000000aa": http.StatusNotFound, // never traced
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("GET %s = %d, want %d", path, rec.Code, want)
		}
	}

	plain, _ := newTracedServer(t, nil)
	rec := httptest.NewRecorder()
	plain.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace/1", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("trace endpoint without observer = %d, want 404", rec.Code)
	}
}

func TestPprofMounted(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	with := New(eng, Config{EnablePprof: true})
	rec := httptest.NewRecorder()
	with.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index = %d with EnablePprof", rec.Code)
	}

	without := New(eng, Config{})
	rec = httptest.NewRecorder()
	without.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof index = %d without EnablePprof, want 404", rec.Code)
	}
}

func TestAccessLogLevels(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	o := obs.New(obs.Config{Logger: logger, SampleRate: 1, Seed: 1})
	srv, _ := newTracedServer(t, o)

	// 404 (client error) → Info; bad method 405 → Info; healthz 200 → Debug.
	srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/read", strings.NewReader(`{"addr":9}`)))
	srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	out := buf.String()
	if !strings.Contains(out, "level=INFO") || !strings.Contains(out, "code=404") {
		t.Fatalf("404 access log missing: %q", out)
	}
	if !strings.Contains(out, "level=DEBUG") || !strings.Contains(out, "path=/healthz") {
		t.Fatalf("healthz debug log missing: %q", out)
	}
	if !strings.Contains(out, "trace_id=") {
		t.Fatalf("traced request logged no trace_id: %q", out)
	}
}

func TestStatsIncludesTelemetry(t *testing.T) {
	srv, _ := newTracedServer(t, nil)

	// Default schema (v2): gauges nested under telemetry.gauges.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats struct {
		Telemetry struct {
			Gauges []obs.ShardGauge `json:"gauges"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Telemetry.Gauges) != 2 {
		t.Fatalf("stats telemetry gauges = %+v, want 2 shards", stats.Telemetry.Gauges)
	}

}

func TestMetricsIncludeQueueGauges(t *testing.T) {
	srv, _ := newTracedServer(t, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`attached_shard_queue_depth{shard="0"}`,
		`attached_shard_inflight{shard="1"}`,
		`attached_shard_last_batch_ops{shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent slog use.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
