package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
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
// tail, which need not even be well formed), anything but whitespace
// after the closing ']' is a 400, an empty array answers an empty results
// array and a body of whitespace alone is refused. Each row runs with its
// ops spelled three ways — as json.Marshal renders them, keys reordered,
// whitespace inside the objects — so no rule depends on the spelling.
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
		{"empty array", " [ ] ", 200, `{"results":[],"failed":0}`},
		{"whitespace alone", " \n\t", 400, `"empty batch body"`},
	} {
		for _, twin := range []string{op, `{"addr":1,"op":"read"}`, `{ "op": "read", "addr": 1 }`} {
			// Two collections empty the request-state pool: each body meets
			// a fresh state, as a daemon's first request does.
			runtime.GC()
			runtime.GC()
			w := do(t, h, "POST", "/v1/batch", strings.ReplaceAll(c.body, op, twin))
			if w.Code != c.code || !strings.Contains(w.Body.String(), c.sub) {
				t.Errorf("%s, ops as %s: %d %s, want %d with %q", c.name, twin, w.Code, w.Body, c.code, c.sub)
			}
		}
	}
}

// TestBatchFrameBounds pins what the server decides about a frame: a
// count over the cap is refused before any op is read, with the JSON
// forms' text; a frame the reader refuses answers "bad frame: …"; a body
// over MaxBodyBytes says so in either encoding; and a frame at the cap is
// answered with a frame.
func TestBatchFrameBounds(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := New(eng, Config{MaxBatchOps: 2, MaxBodyBytes: 1 << 10}).Handler()
	reads := func(n int) []byte { return wire.AppendFrameOps(nil, make([]shard.Op, n)) }
	set := func(b []byte, at int, v byte) []byte {
		b = bytes.Clone(b)
		b[at] = v
		return b
	}
	write := wire.AppendFrameOps(nil, []shard.Op{{Write: true, Addr: 1, Data: testLine(1)}})
	for _, c := range []struct {
		name string
		body []byte
		code int
		sub  string
	}{
		{"frame at the cap", reads(2), 200, ""},
		{"frame over the cap", reads(3), 400, `"batch exceeds limit of 2 ops"`},
		{"count over the cap, no ops", reads(3)[:10], 400, `"batch exceeds limit of 2 ops"`},
		{"torn count", reads(1)[:8], 400, `"bad frame: torn header"`},
		{"bad magic", set(reads(1), 1, 'X'), 400, `"bad frame: bad magic"`},
		{"unknown version", set(reads(1), 4, 9), 400, `"bad frame: unsupported version 9 (want 1)"`},
		{"unknown kind", set(reads(1), 10, 2), 400, `"bad frame: item 0x0: unknown kind 2"`},
		{"length past the end", set(write, 19, 65), 400, `"bad frame: item 0x1: payload runs past the end"`},
		{"trailing bytes", append(reads(1), 0), 400, `"bad frame: 1 bytes after the last item"`},
		{"frame over MaxBodyBytes", wire.AppendFrameOps(nil, []shard.Op{{Write: true, Data: make([]byte, 2<<10)}}), 400, `"body exceeds limit of 1024 bytes"`},
		{"JSON over MaxBodyBytes", []byte(`{"op":"write","addr":1,"data":"` + strings.Repeat("A", 2<<10) + `"}`), 400, `"body exceeds limit of 1024 bytes"`},
	} {
		w := do(t, h, "POST", "/v1/batch", string(c.body))
		if w.Code != c.code || !strings.Contains(w.Body.String(), c.sub) {
			t.Errorf("%s: %d %s, want %d with %s", c.name, w.Code, w.Body, c.code, c.sub)
		}
	}
	w := do(t, h, "POST", "/v1/batch", string(reads(2)))
	var f wire.Frame
	if n, failed, err := f.Results(w.Body.Bytes()); err != nil || n != 2 || failed != 2 || w.Header().Get("Content-Type") != "application/x-attache-frame" {
		t.Errorf("a frame at the cap answered %q (%s): %d results, %d failed, %v", w.Body, w.Header().Get("Content-Type"), n, failed, err)
	}
}

// TestBatchFormsAnswerAlike sends the same mixed batches to three fresh
// daemons — canonical, json.MarshalIndent'ed, and a canonical prefix with
// an indented tail — and wants byte-identical answers and the same engine
// totals: which path read a body changes nothing downstream.
func TestBatchFormsAnswerAlike(t *testing.T) {
	a := func(v uint64) *uint64 { return &v }
	batches := [][]wire.Op{
		{{Op: "write", Addr: a(1), Data: testLine(1)}, {Op: "write", Addr: a(2), Data: testLine(2)}, {Op: "read", Addr: a(1)},
			{Op: "write", Addr: a(3), Data: []byte("short")}, {Op: "frobnicate", Addr: a(4)}, {Op: "read"}},
		{{Op: "read", Addr: a(2)}, {Op: "read", Addr: a(9)}, {Op: "write", Addr: a(2), Data: testLine(7)},
			{Op: "read", Addr: a(2)}, {Op: "write", Addr: a(5), Data: bytes.Repeat([]byte{3}, 70)}, {Op: "read", Addr: a(1)}},
	}
	indent := func(v any) []byte {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	forms := map[string]func([]wire.Op) []byte{
		"canonical": func(ops []wire.Op) []byte { return canonical(ops) },
		"indented":  func(ops []wire.Op) []byte { return indent(ops) },
		"canonical prefix, indented tail": func(ops []wire.Op) []byte {
			body := canonical(ops[:len(ops)/2])
			for _, op := range ops[len(ops)/2:] {
				body = append(append(body[:len(body)-1], ','), indent(op)...)
				body = append(body, ']')
			}
			return body
		},
	}
	var wantAnswers []string
	var wantTotal core.StatsSnapshot
	for _, name := range []string{"canonical", "indented", "canonical prefix, indented tail"} {
		h := newTestServer(t).Handler()
		var answers []string
		for _, ops := range batches {
			w := do(t, h, "POST", "/v1/batch", string(forms[name](ops)))
			if w.Code != 200 {
				t.Fatalf("%s: %d %s", name, w.Code, w.Body)
			}
			answers = append(answers, w.Body.String())
		}
		var st wire.Stats
		if err := json.Unmarshal(do(t, h, "GET", "/v1/stats", "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if wantAnswers == nil {
			wantAnswers, wantTotal = answers, st.Engine.Total
			continue
		}
		for i := range answers {
			if answers[i] != wantAnswers[i] {
				t.Errorf("%s: batch %d answered\n%s\nwant\n%s", name, i, answers[i], wantAnswers[i])
			}
		}
		if st.Engine.Total != wantTotal {
			t.Errorf("%s: engine totals %+v, want %+v", name, st.Engine.Total, wantTotal)
		}
	}
}

// canonical renders ops as json.Marshal does, as a script would.
func canonical(ops []wire.Op) []byte {
	body, _ := json.Marshal(ops)
	return body
}

// TestBodyHintClamped: an announced Content-Length sizes the body buffer
// only up to MaxBodyBytes, so a request that claims 1 MiB against a 16 KiB
// cap does not reserve the 1 MiB (which the pooled state would then keep).
func TestBodyHintClamped(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := New(eng, Config{MaxBodyBytes: 1 << 14})
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(`[{"op":"read","addr":1}]`))
	req.ContentLength = 1 << 20
	var st reqState
	if !s.readBody(&st, httptest.NewRecorder(), req) {
		t.Fatal("readBody refused a 24-byte body")
	}
	if c := cap(st.body); c >= 64<<10 {
		t.Errorf("a request announcing 1 MiB against a 16 KiB cap reserved %d bytes, want under 64 KiB", c)
	}
}

// batch64 is the wire-batch workload's request, n ops of it (64 in the
// workload), three reads in four, over lines the engine already holds: as
// JSON, and as the frame client.DoCtx sends.
func batch64(t testing.TB, h http.Handler, n int) (jsonBody, frame []byte) {
	var prefill, body []wire.Op
	var ops []shard.Op
	for i := 0; i < n; i++ {
		addr := uint64(i)
		w := wire.Op{Op: "write", Addr: &addr, Data: testLine(byte(i))}
		prefill = append(prefill, w)
		op := shard.Op{Write: true, Addr: addr, Data: w.Data}
		if i%4 != 0 {
			w, op = wire.Op{Op: "read", Addr: &addr}, shard.Op{Addr: addr}
		}
		body, ops = append(body, w), append(ops, op)
	}
	if w := do(t, h, "POST", "/v1/batch", string(canonical(prefill))); w.Code != 200 || !strings.Contains(w.Body.String(), `"failed":0`) {
		t.Fatalf("prefill: %d %s", w.Code, w.Body)
	}
	return canonical(body), wire.AppendFrameOps(nil, ops)
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
// a /v1/batch frame allocates does not depend on how many ops it carries
// — the engine's result slice and read arena, the request's context and
// header plumbing, and nothing per op — and is no more than the same ops
// in JSON. A JSON batch goes through encoding/json, which allocates per
// op: the op's name and address, and a write's payload (one op in four
// here).
func TestHandlerBatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := newTestServer(t).Handler()
	measure := func(n int, frame bool) float64 {
		body, fbody := batch64(t, h, n)
		if frame {
			body = fbody
		}
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
	small, large := measure(8, false), measure(64, false)
	fsmall, flarge := measure(8, true), measure(64, true)
	perOp := (large - small) / (64 - 8)
	t.Logf("allocations per request: %.0f at 8 ops, %.0f at 64 ops (%.2f per op); as a frame %.0f and %.0f", small, large, perOp, fsmall, flarge)
	if flarge > fsmall+1 {
		t.Errorf("a 64-op frame allocates %.0f times, an 8-op frame %.0f: allocations grow with ops", flarge, fsmall)
	}
	if flarge > 16 {
		t.Errorf("a 64-op frame allocates %.0f times, budget is 16", flarge)
	}
	if flarge > large {
		t.Errorf("a 64-op frame allocates %.0f times, the same batch in JSON %.0f", flarge, large)
	}
	if perOp > 2.5 || large > 16+64*2.5 {
		t.Errorf("a 64-op JSON batch allocates %.0f times, %.2f per op; budget is 2.5 per op over 16", large, perOp)
	}
}

// TestUnreadableBody: a body that fails mid-upload is refused as unread,
// whichever encoding its first byte announced.
func TestUnreadableBody(t *testing.T) {
	h := newTestServer(t).Handler()
	frame := wire.AppendFrameOps(nil, make([]shard.Op, 1))
	for _, head := range [][]byte{frame[:1], frame[:12], []byte("["), []byte(`{"op":"read"`)} {
		body := io.MultiReader(bytes.NewReader(head), iotest.ErrReader(errors.New("torn upload")))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", body))
		if w.Code != 400 || !strings.Contains(w.Body.String(), `"read body: torn upload"`) {
			t.Errorf("torn after %q: %d %s", head, w.Code, w.Body)
		}
	}
}

// BenchmarkHandlerBatch64 is the handler rung of the ladder: one 64-op
// batch through Server.Handler(), no socket, as the frame client.DoCtx
// sends and as JSON. The json arm also reports its time over the frame arm's in
// the same run (json/frame), a figure that carries across hosts where
// nanoseconds do not.
func BenchmarkHandlerBatch64(b *testing.B) {
	h := newTestServer(b).Handler()
	jsonBody, frame := batch64(b, h, 64)
	var frameNs float64 // the frame arm's time per batch, from its last run
	for _, c := range []struct {
		name string
		body []byte
	}{{"frame", frame}, {"json", jsonBody}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(c.body)))
				if w.Code != 200 {
					b.Fatalf("batch answered %d: %s", w.Code, w.Body)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if c.name == "frame" {
				frameNs = ns
			} else if frameNs > 0 {
				b.ReportMetric(ns/frameNs, "json/frame")
			}
		})
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
				var ops []wire.Op
				for k := 0; k < opsPerBatch; k++ {
					addr := uint64(g*1000 + k)
					ops = append(ops, wire.Op{Op: "write", Addr: &addr, Data: payload(g, i, k)}, wire.Op{Op: "read", Addr: &addr})
				}
				code, resp, err := post(context.Background(), fast.URL+"/v1/batch", string(canonical(ops)))
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

// TestLineFrames: a frame of one op of the endpoint's kind is answered
// with a one-item answer frame; a frame of any other shape is a 400 "bad
// frame: …"; and an op that fails fails the call, answered in JSON as a
// JSON body's would be.
func TestLineFrames(t *testing.T) {
	h := newTestServer(t).Handler()
	read := func(addr uint64) []byte { return wire.AppendFrameOps(nil, []shard.Op{{Addr: addr}}) }
	write := func(addr uint64, data []byte) []byte {
		return wire.AppendFrameOps(nil, []shard.Op{{Write: true, Addr: addr, Data: data}})
	}
	answer := func(r wire.OpResult) string {
		return string(wire.AppendFrameBatch(nil, wire.Batch{Results: []wire.OpResult{r}}))
	}
	line := testLine(0xD4)
	for i, r := range []struct {
		path string
		body []byte
		code int
		want string
	}{
		{"/v1/write", write(3, line), 200, answer(wire.OpResult{Addr: 3, OK: true})},
		{"/v1/read", read(3), 200, answer(wire.OpResult{Addr: 3, Data: line})},
		{"/v1/read", write(3, line), 400, `{"error":"bad frame: want one read op"}` + "\n"},
		{"/v1/write", read(3), 400, `{"error":"bad frame: want one write op"}` + "\n"},
		{"/v1/read", wire.AppendFrameOps(nil, []shard.Op{{Addr: 3}, {Addr: 3}}), 400, `{"error":"bad frame: want one read op"}` + "\n"},
		{"/v1/read", wire.AppendFrameOps(nil, nil), 400, `{"error":"bad frame: want one read op"}` + "\n"},
		{"/v1/read", read(3)[:8], 400, `{"error":"bad frame: torn header"}` + "\n"},
		{"/v1/write", write(3, line)[:30], 400, `{"error":"bad frame: item 0x3: payload runs past the end"}` + "\n"},
		{"/v1/read", append(read(3), 0), 400, `{"error":"bad frame: 1 bytes after the last item"}` + "\n"},
		{"/v1/read", read(99), 404, `{"error":"core: line 0x63: attache: line was never written"}` + "\n"},
		{"/v1/write", write(4, line[:3]), 400, `{"error":"core: Store needs a 64-byte line, got 3: attache: line must be exactly 64 bytes"}` + "\n"},
	} {
		w := do(t, h, "POST", r.path, string(r.body))
		ctype := map[bool]string{false: "application/json", true: "application/x-attache-frame"}[r.code == 200]
		if w.Code != r.code || w.Header().Get("Content-Type") != ctype || w.Body.String() != r.want {
			t.Errorf("row %d: %s answered %d (%s) %q, want %d (%s) %q", i, r.path, w.Code, w.Header().Get("Content-Type"), w.Body, r.code, ctype, r.want)
		}
	}
}
