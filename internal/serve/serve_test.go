package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/shard"
)

func testLine(fill byte) []byte {
	line := make([]byte, core.LineSize)
	for i := range line {
		line[i] = fill
	}
	return line
}

func b64(p []byte) string { return base64.StdEncoding.EncodeToString(p) }

func newTestServer(t testing.TB) *Server {
	t.Helper()
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 2, MaxLines: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return New(eng, Config{})
}

func do(t testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestHandlers is the table-driven pass over every endpoint's error and
// success paths.
func TestHandlers(t *testing.T) {
	srv := newTestServer(t)
	h := srv.Handler()

	// Seed a line the read cases can hit.
	seeded := testLine(0xAB)
	if w := do(t, h, "POST", "/v1/write", fmt.Sprintf(`{"addr":42,"data":%q}`, b64(seeded))); w.Code != 200 {
		t.Fatalf("seed write: %d %s", w.Code, w.Body)
	}

	cases := []struct {
		name, method, path, body string
		wantCode                 int
		wantBodySub              string // substring the response must contain
	}{
		{"read ok", "POST", "/v1/read", `{"addr":42}`, 200, b64(seeded)},
		{"read bad json", "POST", "/v1/read", `{"addr":`, 400, "bad JSON"},
		{"read missing addr", "POST", "/v1/read", `{}`, 400, "missing addr"},
		{"read never written", "POST", "/v1/read", `{"addr":77}`, 404, "never written"},
		{"read out of range", "POST", "/v1/read", `{"addr":1048576}`, 400, "out of range"},
		{"read wrong method", "GET", "/v1/read", "", 405, "use POST"},
		{"write ok", "POST", "/v1/write", fmt.Sprintf(`{"addr":43,"data":%q}`, b64(testLine(1))), 200, `"ok":true`},
		{"write bad json", "POST", "/v1/write", `not json`, 400, "bad JSON"},
		{"write missing addr", "POST", "/v1/write", fmt.Sprintf(`{"data":%q}`, b64(testLine(1))), 400, "missing addr"},
		{"write wrong line size", "POST", "/v1/write", fmt.Sprintf(`{"addr":44,"data":%q}`, b64([]byte("short"))), 400, "64 bytes"},
		{"write out of range", "POST", "/v1/write", fmt.Sprintf(`{"addr":9999999,"data":%q}`, b64(testLine(1))), 400, "out of range"},
		{"batch bad json", "POST", "/v1/batch", `{"op":`, 400, "bad JSON"},
		{"batch empty body", "POST", "/v1/batch", "", 400, "empty batch"},
		{"healthz", "GET", "/healthz", "", 200, "ok"},
		{"stats", "GET", "/v1/stats", "", 200, `"per_shard"`},
		{"metrics", "GET", "/metrics", "", 200, "attached_reads_total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, h, tc.method, tc.path, tc.body)
			if w.Code != tc.wantCode {
				t.Fatalf("code = %d, want %d (body %s)", w.Code, tc.wantCode, w.Body)
			}
			if !strings.Contains(w.Body.String(), tc.wantBodySub) {
				t.Fatalf("body %q missing %q", w.Body, tc.wantBodySub)
			}
		})
	}
}

// TestBatchPartialFailure checks /v1/batch semantics: one bad op fails
// alone, the rest of the batch lands, and the response reports per-op
// outcomes in order.
func TestBatchPartialFailure(t *testing.T) {
	srv := newTestServer(t)
	h := srv.Handler()

	body := fmt.Sprintf(`[
		{"op":"write","addr":1,"data":%q},
		{"op":"read","addr":1},
		{"op":"read","addr":555},
		{"op":"write","addr":2,"data":%q},
		{"op":"frobnicate","addr":3},
		{"op":"read"}
	]`, b64(testLine(7)), b64([]byte("short")))
	w := do(t, h, "POST", "/v1/batch", body)
	if w.Code != 200 {
		t.Fatalf("partial failure must still answer 200, got %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Addr  uint64 `json:"addr"`
			Data  []byte `json:"data"`
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		} `json:"results"`
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(resp.Results))
	}
	if !resp.Results[0].OK {
		t.Fatalf("op0 write failed: %s", resp.Results[0].Error)
	}
	if !bytes.Equal(resp.Results[1].Data, testLine(7)) {
		t.Fatal("op1 read did not observe the in-batch write")
	}
	if !strings.Contains(resp.Results[2].Error, "never written") {
		t.Fatalf("op2 error = %q, want never-written", resp.Results[2].Error)
	}
	if !strings.Contains(resp.Results[3].Error, "64 bytes") {
		t.Fatalf("op3 error = %q, want bad line size", resp.Results[3].Error)
	}
	if !strings.Contains(resp.Results[4].Error, "unknown op") {
		t.Fatalf("op4 error = %q, want unknown op", resp.Results[4].Error)
	}
	if !strings.Contains(resp.Results[5].Error, "missing addr") {
		t.Fatalf("op5 error = %q, want missing addr", resp.Results[5].Error)
	}
	if resp.Failed != 4 {
		t.Fatalf("failed = %d, want 4", resp.Failed)
	}
}

// TestBatchNDJSON feeds the multi-line (one JSON object per line) form.
func TestBatchNDJSON(t *testing.T) {
	srv := newTestServer(t)
	h := srv.Handler()
	body := fmt.Sprintf("{\"op\":\"write\",\"addr\":10,\"data\":%q}\n{\"op\":\"read\",\"addr\":10}\n", b64(testLine(3)))
	w := do(t, h, "POST", "/v1/batch", body)
	if w.Code != 200 {
		t.Fatalf("ndjson batch: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Data []byte `json:"data"`
		} `json:"results"`
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 || len(resp.Results) != 2 || !bytes.Equal(resp.Results[1].Data, testLine(3)) {
		t.Fatalf("ndjson round trip broken: %s", w.Body)
	}
}

// TestBatchCap rejects oversized batches up front.
func TestBatchCap(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := New(eng, Config{MaxBatchOps: 2})
	w := do(t, srv.Handler(), "POST", "/v1/batch",
		`[{"op":"read","addr":1},{"op":"read","addr":2},{"op":"read","addr":3}]`)
	if w.Code != 400 || !strings.Contains(w.Body.String(), "exceeds limit") {
		t.Fatalf("oversized batch: %d %s", w.Code, w.Body)
	}
}

// TestMetricsExposition checks the Prometheus text format: counters move
// with traffic and the latency histograms are cumulative and labelled.
func TestMetricsExposition(t *testing.T) {
	srv := newTestServer(t)
	h := srv.Handler()
	for i := 0; i < 5; i++ {
		do(t, h, "POST", "/v1/write", fmt.Sprintf(`{"addr":%d,"data":%q}`, i, b64(testLine(byte(i)))))
		do(t, h, "POST", "/v1/read", fmt.Sprintf(`{"addr":%d}`, i))
	}
	do(t, h, "POST", "/v1/read", `{"addr":404}`) // a 404 for the code label

	w := do(t, h, "GET", "/metrics", "")
	body := w.Body.String()
	for _, want := range []string{
		"attached_reads_total 5",
		"attached_writes_total 5",
		"attached_lines 5",
		"attached_compressed_line_ratio",
		"attached_predictor_accuracy",
		"attached_ra_occupancy",
		"attached_shards 2",
		`attached_shard_lines{shard="0"}`,
		`attached_http_requests_total{endpoint="/v1/read",code="200"} 5`,
		`attached_http_requests_total{endpoint="/v1/read",code="404"} 1`,
		`attached_http_request_duration_seconds_bucket{endpoint="/v1/write",le="+Inf"} 5`,
		`attached_http_request_duration_seconds_count{endpoint="/v1/write"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestEndToEndServeDrainShutdown runs the real daemon lifecycle: listen,
// serve concurrent client traffic over TCP, then cancel the context
// mid-traffic and verify every accepted request completed and the engine
// drained cleanly.
func TestEndToEndServeDrainShutdown(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{Addr: "127.0.0.1:0", ShutdownTimeout: 5 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx) }()
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + srv.Addr()

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Concurrent clients stream batches while the test runs.
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				addr := c*1000 + i
				body := fmt.Sprintf(`[{"op":"write","addr":%d,"data":%q},{"op":"read","addr":%d}]`,
					addr, b64(testLine(byte(c))), addr)
				resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader(body))
				if err != nil {
					// The listener may close mid-loop once cancel fires;
					// connection errors after that are expected.
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || !strings.Contains(string(b), `"failed":0`) {
					errc <- fmt.Errorf("client %d: %d %s", c, resp.StatusCode, b)
					return
				}
			}
		}(c)
	}

	time.Sleep(50 * time.Millisecond) // let traffic overlap the drain
	cancel()
	wg.Wait()
	// A connection the transport dialed speculatively and never used sits
	// in StateNew on the server, which Shutdown waits 5 s on — the whole
	// ShutdownTimeout. Hang up on everything the clients are done with.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never finished")
	}

	// Engine is closed: further ops fail, final snapshot holds traffic.
	if _, err := eng.Read(0); err == nil {
		t.Fatal("engine must be closed after drain")
	}
	if snap := eng.StatsSnapshot(); snap.Total.Writes == 0 {
		t.Fatalf("post-drain snapshot lost traffic: %+v", snap.Total)
	}

	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
