package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/wire"
)

// FuzzBatchParser throws arbitrary bytes at the decoders of the /v1 data
// endpoints — the frame, the JSON-array and NDJSON batch forms, and the
// JSON line body — sending each input to /v1/batch, /v1/read and
// /v1/write. The contract: never panic, never hang, and answer 200
// (parsed), 400 (rejected) or, on a line endpoint, 404 (a never-written
// read), no matter how malformed, huge, or truncated the body; a frame
// answered 200 is answered with a frame, of one item on a line endpoint.
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
		wire.AppendFrameOps(nil, make([]shard.Op, 17)),  // over MaxBatchOps
		set(reads, 9, 0xFF),                             // a count far over the cap and the bytes
		set(write, 19, 0xFF),                            // a length prefix past the end
		set(reads, 10, 9),                               // unknown kind
		set(reads, 4, 2),                                // unknown version
		append(bytes.Clone(reads), 0, 0),                // trailing bytes
		wire.AppendFrameOps(nil, []shard.Op{{Addr: 1}}), // one read, as /v1/read takes it
		write[:len(write)-9],                            // torn in the line
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/batch", "/v1/read", "/v1/write"} {
			req := httptest.NewRequest("POST", path, bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req) // any panic fails the fuzz run
			if w.Code != 200 && w.Code != 400 && (w.Code != 404 || path == "/v1/batch") {
				t.Fatalf("%s answered %d for %q", path, w.Code, body)
			}
			if w.Code != 200 || !wire.IsFrame(body) {
				continue
			}
			var fr wire.Frame
			n, _, err := fr.Results(w.Body.Bytes())
			if err == nil && path != "/v1/batch" {
				fr.NextResult(new(wire.OpResult), nil)
				if err = fr.Err(); n != 1 {
					err = fmt.Errorf("%d items", n)
				}
			}
			if err != nil {
				t.Fatalf("%s answered the frame %q with %q: %v", path, body, w.Body, err)
			}
		}
	})
}
