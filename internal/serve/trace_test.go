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

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
)

func newTracedServer(t *testing.T, o *obs.Observer) (*Server, *shard.Engine) {
	t.Helper()
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 2})
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

// TestSampledTraceHasOneOwner: the server is the only sampler and the
// only finisher. At every rate, exactly 1 in every requests is echoed a
// trace ID, the ring holds exactly the echoed IDs, and each one's
// timeline shows execute spans over every op of its request — on a
// 2-shard engine serving /v1/read and on a 6-shard engine behind a
// cluster serving 16-op /v1/batch requests that touch every shard.
func TestSampledTraceHasOneOwner(t *testing.T) {
	ops := make([]string, 16)
	for j := range ops {
		ops[j] = fmt.Sprintf(`{"op":"write","addr":%d,"data":%q}`, j*64, b64(testLine(byte(j))))
	}
	batch := "[" + strings.Join(ops, ",") + "]"

	for _, setup := range []struct {
		name   string
		shards int
		path   string
		body   func(i int) string
		ops    int
	}{
		{"engine-read", 2, "/v1/read", func(i int) string { return fmt.Sprintf(`{"addr":%d}`, i) }, 1},
		{"cluster-batch", 6, "/v1/batch", func(int) string { return batch }, 16},
	} {
		for _, every := range []int{2, 4, 100} {
			t.Run(fmt.Sprintf("%s/every%d", setup.name, every), func(t *testing.T) {
				o := obs.New(obs.Config{SampleRate: 1 / float64(every), Seed: 1})
				var srv *Server
				if setup.path == "/v1/read" {
					eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: setup.shards})
					if err != nil {
						t.Fatal(err)
					}
					srv = New(eng, Config{Obs: o})
				} else {
					cl, err := cluster.New(core.DefaultOptions(), shard.Config{Shards: setup.shards}, cluster.Config{})
					if err != nil {
						t.Fatal(err)
					}
					srv = NewCluster(cl, Config{Obs: o})
				}
				t.Cleanup(func() { srv.cl.Close() })
				h := srv.Handler()

				echoed := make(map[string]bool)
				for i := 0; i < 1000; i++ {
					rec := do(t, h, http.MethodPost, setup.path, setup.body(i))
					if id := rec.Header().Get(obs.TraceHeader); id != "" {
						echoed[id] = true
					}
				}
				if len(echoed) != 1000/every {
					t.Fatalf("%d of 1000 responses carry a trace ID, want %d", len(echoed), 1000/every)
				}
				ring := o.Recent(0)
				if len(ring) != len(echoed) {
					t.Fatalf("ring holds %d traces, want the %d echoed", len(ring), len(echoed))
				}
				for _, tl := range ring {
					if !echoed[tl.TraceID] {
						t.Fatalf("ring holds trace %s that no response echoed", tl.TraceID)
					}
				}
				for id := range echoed {
					rec := do(t, h, http.MethodGet, "/v1/trace/"+id, "")
					var tl obs.Timeline
					if err := json.Unmarshal(rec.Body.Bytes(), &tl); rec.Code != http.StatusOK || err != nil {
						t.Fatalf("GET /v1/trace/%s = %d (%v): %s", id, rec.Code, err, rec.Body)
					}
					executed := 0
					for _, ev := range tl.Events {
						if ev.Stage == obs.StageExecute.String() {
							executed += ev.Ops
						}
					}
					if executed != setup.ops {
						t.Fatalf("trace %s: execute spans cover %d ops, want %d", id, executed, setup.ops)
					}
				}
				for i, s := range srv.cl.EngineSnapshot().PerShard {
					if setup.ops > 1 && s.Writes == 0 {
						t.Fatalf("shard %d took no write of the batch", i)
					}
				}
			})
		}
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
