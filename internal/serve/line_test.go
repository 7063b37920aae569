package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestLineJSONAnswers pins what a JSON body on /v1/read and /v1/write is
// answered with — status, Content-Type, Content-Length and body, byte for
// byte — over the bodies a script or curl may send: canonical and not,
// payloads of every length and shape, addresses JSON spells in ways a
// uint64 refuses, and bodies that are no one object. The rows run in
// order against one daemon, so a read sees the writes above it. An answer
// written whole carries its length; an error answer is streamed, and its
// Content-Length is left to net/http.
func TestLineJSONAnswers(t *testing.T) {
	h := newTestServer(t).Handler()
	a, b, c := b64(testLine(0xA1)), b64(testLine(0xB2)), b64(testLine(0xC3))
	const js = "application/json"
	ok := func(addr string) string { return `{"addr":` + addr + `,"ok":true}` }
	line := func(addr, data string) string { return `{"addr":` + addr + `,"data":"` + data + `"}` }
	fail := func(msg string) string { return `{"error":"` + msg + `"}` + "\n" }
	size := func(n int) string {
		return fail(fmt.Sprintf("core: Store needs a 64-byte line, got %d: attache: line must be exactly 64 bytes", n))
	}
	for i, r := range []struct {
		path, body    string
		code          int
		ctype, length string
		want          string
	}{
		{"/v1/write", line("5", a), 200, js, "20", ok("5")},
		{"/v1/read", `{"addr":5}`, 200, js, "108", line("5", a)},
		{"/v1/write", `{"data":"` + b + `","addr":6}`, 200, js, "20", ok("6")},
		{"/v1/read", ` { "data" : "QUJD" , "addr" : 6 } `, 200, js, "108", line("6", b)},
		{"/v1/write", line("7", strings.Replace(c, "w", `\u0077`, 1)), 200, js, "20", ok("7")},
		{"/v1/read", `{"addr":7}`, 200, js, "108", line("7", c)},
		{"/v1/write", line("8", b64([]byte("abc"))), 400, js, "", size(3)},
		{"/v1/write", line("8", b64(bytes.Repeat([]byte{0x11}, 70))), 400, js, "", size(70)},
		{"/v1/write", `{"addr":8,"data":null}`, 400, js, "", size(0)},
		{"/v1/write", `{"addr":8,"data":[1,2]}`, 400, js, "", size(2)},
		{"/v1/write", `{"addr":8,"data":"!!!"}`, 400, js, "", fail("bad JSON: illegal base64 data at input byte 0")},
		{"/v1/read", `{"addr":8,"data":[1,2]}`, 404, js, "", fail("core: line 0x8: attache: line was never written")},
		{"/v1/read", `{"addr":1e3}`, 400, js, "", fail("bad JSON: json: cannot unmarshal number 1e3 into Go struct field LineReq.addr of type uint64")},
		{"/v1/read", `{"addr":01}`, 400, js, "", fail("bad JSON: invalid character '1' after object key:value pair")},
		{"/v1/read", `{"addr":-1}`, 400, js, "", fail("bad JSON: json: cannot unmarshal number -1 into Go struct field LineReq.addr of type uint64")},
		{"/v1/read", `{"addr":18446744073709551616}`, 400, js, "", fail("bad JSON: json: cannot unmarshal number 18446744073709551616 into Go struct field LineReq.addr of type uint64")},
		{"/v1/read", `{"addr":1048576}`, 400, js, "", fail("shard: addr 0x100000 beyond configured capacity 65536: attache: out of range")},
		{"/v1/write", line("1048576", a), 400, js, "", fail("shard: addr 0x100000 beyond configured capacity 65536: attache: out of range")},
		{"/v1/write", `{"ADDR":9,"data":"` + b + `"}`, 200, js, "20", ok("9")},
		{"/v1/read", `{"Addr":9}`, 200, js, "108", line("9", b)},
		{"/v1/read", `{"addr":5} x`, 400, js, "", fail("bad JSON: invalid character 'x' after top-level value")},
		{"/v1/write", line("5", a) + `{"addr":6}`, 400, js, "", fail("bad JSON: invalid character '{' after top-level value")},
		{"/v1/read", `{}`, 400, js, "", fail("missing addr")},
		{"/v1/write", `null`, 400, js, "", fail("missing addr")},
		{"/v1/read", ``, 400, js, "", fail("bad JSON: unexpected end of JSON input")},
		{"/v1/write", "\x00\x01\x02", 400, js, "", fail(`bad JSON: invalid character '\\x00' looking for beginning of value`)},
		{"/v1/read", `{"addr":99}`, 404, js, "", fail("core: line 0x63: attache: line was never written")},
	} {
		w := do(t, h, "POST", r.path, r.body)
		if w.Code != r.code || w.Header().Get("Content-Type") != r.ctype || w.Header().Get("Content-Length") != r.length || w.Body.String() != r.want {
			t.Errorf("row %d: %s %q answered %d, Content-Type %q, Content-Length %q, %q; want %d, %q, %q, %q", i, r.path, r.body,
				w.Code, w.Header().Get("Content-Type"), w.Header().Get("Content-Length"), w.Body, r.code, r.ctype, r.length, r.want)
		}
	}
}
