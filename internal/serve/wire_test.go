package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/wire"
	"attache/internal/workload"
)

// recordedSession drives one fixed session — every endpoint, both batch
// forms, and the payload shapes that leave the scanner's in-place path
// (short, long, absent, escaped) — and returns its tracev1 capture with
// the wall-clock offsets zeroed.
func recordedSession(t *testing.T) string {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 2, MaxLines: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	tw := workload.NewTraceWriter(&buf)
	h := New(eng, Config{Record: tw}).Handler()

	line, long := b64(testLine(0x5A)), b64(bytes.Repeat([]byte{0x11}, 70))
	for _, c := range []struct {
		path, body string
		code       int
	}{
		{"/v1/write", `{"addr":7,"data":"` + line + `"}`, 200},
		{"/v1/read", `{"addr":7}`, 200},
		{"/v1/write", `{"addr":8,"data":"` + b64([]byte("short")) + `"}`, 400},
		{"/v1/write", `{"addr":9,"data":"` + long + `"}`, 400},
		{"/v1/write", `{"addr":10}`, 400},
		{"/v1/read", `{"addr":`, 400},
		{"/v1/batch", `[{"op":"write","addr":11,"data":"` + line + `"},{"op":"read","addr":7,"data":"` + line + `"},` +
			`{"op":"frobnicate","addr":3},{"op":"read"},{"op":"write","addr":12,"data":"` + b64([]byte("short")) + `"},` +
			`{"op":"write","addr":13,"x":[1,{"y":null}],"data":"` + strings.Replace(line, "W", `\u0057`, 1) + `"},` +
			`{"op":"write","addr":14,"data":"` + long + `"},{"op":"write","addr":15,"data":"` + line + `"}]`, 200},
		{"/v1/batch", `{"op":"write","addr":16,"data":"` + line + `"}` + "\n" + `{"op":"read","addr":16}` + "\n", 200},
		{"/v1/batch", `[{"op":"nope","addr":1},{"op":"read"}]`, 200},
		{"/v1/batch", `[{"op":"read","addr":1}`, 400},
	} {
		if w := do(t, h, "POST", c.path, c.body); w.Code != c.code {
			t.Fatalf("%s %s: %d %s", c.path, c.body, w.Code, w.Body)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`"at":\d+`).ReplaceAllString(buf.String(), `"at":0`)
}

// TestRecordCaptureUnchanged: the capture of that session is, byte for
// byte, what the encoding/json handlers recorded for it — a Recorder sees
// the same ops with the same payload bytes whichever path decoded them.
func TestRecordCaptureUnchanged(t *testing.T) {
	line, long, short := b64(testLine(0x5A)), b64(bytes.Repeat([]byte{0x11}, 70)), b64([]byte("short"))
	w := func(addr int, d string) string { return fmt.Sprintf(`{"w":true,"a":%d,"d":"%s"}`, addr, d) }
	want := `{"format":"attache-trace","version":1}` + "\n"
	for _, ops := range []string{
		w(7, line), `{"a":7}`, w(8, short), w(9, long), `{"w":true,"a":10}`,
		w(11, line) + `,{"a":7},` + w(12, short) + "," + w(13, line) + "," + w(14, long) + "," + w(15, line),
		w(16, line) + `,{"a":16}`,
	} {
		want += `{"at":0,"ops":[` + ops + "]}\n"
	}
	if got := recordedSession(t); got != want {
		t.Fatalf("capture changed:\ngot  %s\nwant %s", got, want)
	}
}

// TestBatchBodyBounds pins what the scanner decides op by op: the op cap
// in both body forms (an oversized array is refused without decoding its
// tail, which need not even be well formed), and anything but whitespace
// after the closing ']' is a 400.
func TestBatchBodyBounds(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := New(eng, Config{MaxBatchOps: 2}).Handler()
	op := `{"op":"read","addr":1}`
	for _, c := range []struct {
		name, body string
		code       int
		sub        string
	}{
		{"array at the cap", "[" + op + "," + op + "]", 200, `"failed":2`},
		{"ndjson at the cap", op + "\n" + op + "\n", 200, `"failed":2`},
		{"array over the cap", "[" + op + "," + op + "," + op + "]", 400, "exceeds limit"},
		{"ndjson over the cap", op + "\n" + op + "\n" + op, 400, "exceeds limit"},
		{"array over the cap, torn tail", "[" + op + "," + op + "," + op + `,{"op":`, 400, "exceeds limit"},
		{"whitespace after ]", "[" + op + "] \n\t", 200, `"failed":1`},
		{"value after ]", "[" + op + "] " + op, 400, "bad JSON"},
		{"junk after ]", "[" + op + "]]", 400, "bad JSON"},
		{"junk after empty array", "[] x", 400, "bad JSON"},
	} {
		w := do(t, h, "POST", "/v1/batch", c.body)
		if w.Code != c.code || !strings.Contains(w.Body.String(), c.sub) {
			t.Errorf("%s: %d %s, want %d with %q", c.name, w.Code, w.Body, c.code, c.sub)
		}
	}
}

// batch64 is the wire-batch workload's request: 64 ops, three reads in
// four, over lines the engine already holds.
func batch64(t testing.TB, h http.Handler, n int) []byte {
	var prefill, body []byte
	for i := 0; i < n; i++ {
		addr := uint64(i)
		w := wire.Op{Op: "write", Addr: &addr, Data: testLine(byte(i))}
		prefill = wire.AppendOp(append(prefill, ','), w)
		if i%4 != 0 {
			w = wire.Op{Op: "read", Addr: &addr}
		}
		body = wire.AppendOp(append(body, ','), w)
	}
	prefill[0], body[0] = '[', '['
	if w := do(t, h, "POST", "/v1/batch", string(append(prefill, ']'))); w.Code != 200 || !strings.Contains(w.Body.String(), `"failed":0`) {
		t.Fatalf("prefill: %d %s", w.Code, w.Body)
	}
	return append(body, ']')
}

// discard is a ResponseWriter that keeps nothing, so a measurement sees
// the handler's allocations and not a recorder's.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// TestHandlerBatchAllocationBudget: with the request state pooled, what
// a /v1/batch request allocates does not depend on how many ops it
// carries — the engine's result slice and read arena, the request's
// context and header plumbing, and nothing per op.
func TestHandlerBatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := newTestServer(t).Handler()
	measure := func(n int) float64 {
		body := batch64(t, h, n)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest("POST", "/v1/batch", rd)
		w := &discard{h: http.Header{}}
		return testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			w.code = 200
			h.ServeHTTP(w, req)
			if w.code != 200 {
				t.Fatalf("batch answered %d", w.code)
			}
		})
	}
	small, large := measure(8), measure(64)
	t.Logf("allocations per request: %.0f at 8 ops, %.0f at 64 ops", small, large)
	if large > small+1 {
		t.Errorf("a 64-op batch allocates %.0f times, an 8-op batch %.0f: allocations grow with ops", large, small)
	}
	if large > 16 {
		t.Errorf("a 64-op batch allocates %.0f times, budget is 16", large)
	}
}

// BenchmarkHandlerBatch64 is the handler rung of the ladder: one 64-op
// batch through Server.Handler(), no socket.
func BenchmarkHandlerBatch64(b *testing.B) {
	h := newTestServer(b).Handler()
	body := batch64(b, h, 64)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		if w.Code != 200 {
			b.Fatalf("batch answered %d: %s", w.Code, w.Body)
		}
	}
}

// TestPooledStateNeverCrossesRequests shares the request-state pool
// between everything that can end a request: batches that succeed,
// bodies refused with 400 before and after scanning, writes shed with
// 429, and requests whose client hangs up while their ops sit in a slow
// engine. Every successful batch reads its own writes back inside the
// same request, so a state released twice — two handlers on one body
// buffer, payload slab or result slice — shows as a wrong byte, and as a
// race under -race.
func TestPooledStateNeverCrossesRequests(t *testing.T) {
	fast := httptest.NewServer(newTestServer(t).Handler())
	defer fast.Close()
	slowEng, err := shard.New(core.DefaultOptions(), shard.Config{
		Shards: 1, QueueDepth: 1,
		Faults: shard.FaultPlan{Seed: 5, DelayP: 1, Delay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slowEng.Close()
	slow := httptest.NewServer(New(slowEng, Config{}).Handler())
	defer slow.Close()

	post := func(ctx context.Context, url, body string) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	payload := func(g, i, k int) []byte {
		line := testLine(byte(g))
		binary.LittleEndian.PutUint32(line[8:], uint32(i))
		binary.LittleEndian.PutUint32(line[40:], uint32(k))
		return line
	}

	const workers, rounds, opsPerBatch = 6, 40, 12
	var (
		wg               sync.WaitGroup
		canceled, shed   atomic.Int64
		refused, batches atomic.Int64
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// The disturbers, against the same pool.
				line := b64(payload(g, i, 0))
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				if _, _, err := post(ctx, slow.URL+"/v1/batch", `[{"op":"write","addr":1,"data":"`+line+`"},{"op":"read","addr":1}]`); err != nil {
					canceled.Add(1)
				}
				cancel()
				if code, _, _ := post(context.Background(), slow.URL+"/v1/write", `{"addr":2,"data":"`+line+`"}`); code == 429 {
					shed.Add(1)
				}
				for _, bad := range []string{`[{"op":"write","addr":3,"data":"` + line + `"},{"op":`, `{"op":"write","addr":3,"data":"` + line + `"}` + "\n]"} {
					if code, _, _ := post(context.Background(), fast.URL+"/v1/batch", bad); code == 400 {
						refused.Add(1)
					}
				}

				// The checked request: distinct payloads, read back in place.
				var body []byte
				for k := 0; k < opsPerBatch; k++ {
					addr := uint64(g*1000 + k)
					body = wire.AppendOp(append(body, ','), wire.Op{Op: "write", Addr: &addr, Data: payload(g, i, k)})
					body = wire.AppendOp(append(body, ','), wire.Op{Op: "read", Addr: &addr})
				}
				body[0] = '['
				code, resp, err := post(context.Background(), fast.URL+"/v1/batch", string(append(body, ']')))
				if err != nil || code != 200 {
					t.Errorf("worker %d round %d: %d %v %s", g, i, code, err, resp)
					return
				}
				var got wire.Batch
				if err := json.Unmarshal(resp, &got); err != nil || got.Failed != 0 || len(got.Results) != 2*opsPerBatch {
					t.Errorf("worker %d round %d: %v %s", g, i, err, resp)
					return
				}
				for k := 0; k < opsPerBatch; k++ {
					if w, r := got.Results[2*k], got.Results[2*k+1]; !w.OK || w.Addr != uint64(g*1000+k) || !bytes.Equal(r.Data, payload(g, i, k)) {
						t.Errorf("worker %d round %d op %d: wrote %x, answer %+v %+v", g, i, k, payload(g, i, k)[:12], w, r)
						return
					}
				}
				batches.Add(1)
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d checked batches beside %d cancelled, %d shed and %d refused requests",
		batches.Load(), canceled.Load(), shed.Load(), refused.Load())
	if refused.Load() != 2*workers*rounds {
		t.Errorf("%d of %d malformed bodies answered 400", refused.Load(), 2*workers*rounds)
	}
	if canceled.Load() == 0 || shed.Load() == 0 {
		t.Errorf("the disturbers did not fire: %d cancelled, %d shed", canceled.Load(), shed.Load())
	}
}
