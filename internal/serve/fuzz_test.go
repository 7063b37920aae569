package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/wire"
)

// FuzzBatchParser throws arbitrary bytes at the /v1/batch decoders — the
// frame, and the JSON-array and NDJSON forms. The contract: never
// panic, never hang, and answer either 200 (parsed, per-op outcomes) or
// 400 (rejected), no matter how malformed, huge, or truncated the body;
// and a frame answered 200 is answered with a frame.
func FuzzBatchParser(f *testing.F) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1, MaxLines: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	// Small ceilings so the fuzzer can reach the cap paths cheaply.
	srv := New(eng, Config{MaxBatchOps: 16, MaxBodyBytes: 1 << 14})
	h := srv.Handler()

	line := b64(testLine(7))
	for _, seed := range []string{
		"",                         // empty body
		"[",                        // truncated array
		"[]",                       // empty array
		`[{"op":"read","addr":1}]`, // minimal valid array
		`{"op":"read","addr":1}`,   // single NDJSON object
		`{"op":"write","addr":2,"data":"` + line + `"}` + "\n" + `{"op":"read","addr":2}`,
		`{"op":"read","addr":1}` + "\n" + `{"op"`,                                       // truncated second frame
		`[{"op":"read","addr":1},{"op":"read"`,                                          // truncated mid-array
		`{"op":"frobnicate","addr":1}`,                                                  // unknown op
		`{"op":"read","addr":-1}`,                                                       // negative addr
		`{"op":"read","addr":18446744073709551615}`,                                     // max uint64
		`{"op":"write","addr":1,"data":"!!!"}`,                                          // invalid base64
		`[` + strings.Repeat(`{"op":"read","addr":1},`, 17) + `{"op":"read","addr":1}]`, // over MaxBatchOps
		strings.Repeat(`{"op":"read","addr":1}`+"\n", 64),                               // NDJSON over MaxBatchOps
		`{"op":"write","addr":1,"data":"` + strings.Repeat("A", 1<<15) + `"}`,           // huge line, over MaxBodyBytes
		"\x00\x01\x02",             // binary junk
		`[[[[[[[[[[[[`,             // nesting
		`   [ {"op" : "read" } ] `, // leading whitespace
	} {
		f.Add([]byte(seed))
	}
	// Frames: whole, then broken each way the reader must refuse.
	reads := wire.AppendFrameOps(nil, []shard.Op{{Addr: 1}, {Addr: 2}})
	write := wire.AppendFrameOps(nil, []shard.Op{{Write: true, Addr: 1, Data: testLine(7)}})
	set := func(b []byte, at int, v byte) []byte {
		b = bytes.Clone(b)
		b[at] = v
		return b
	}
	for _, seed := range [][]byte{
		reads, write,
		reads[:8], // truncated count
		wire.AppendFrameOps(nil, make([]shard.Op, 17)), // over MaxBatchOps
		set(reads, 9, 0xFF),                            // a count far over the cap and the bytes
		set(write, 19, 0xFF),                           // a length prefix past the end
		set(reads, 10, 9),                              // unknown kind
		set(reads, 4, 2),                               // unknown version
		append(bytes.Clone(reads), 0, 0),               // trailing bytes
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req) // any panic fails the fuzz run
		if w.Code != 200 && w.Code != 400 {
			t.Fatalf("batch parser answered %d (want 200 or 400) for %q", w.Code, body)
		}
		var fr wire.Frame
		if _, _, err := fr.Results(w.Body.Bytes()); w.Code == 200 && wire.IsFrame(body) && err != nil {
			t.Fatalf("a frame was answered %q: %v", w.Body, err)
		}
	})
}
