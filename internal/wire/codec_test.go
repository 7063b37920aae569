package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The oracle: what encoding/json makes of the same bodies through the
// declarations in wire.go. Array bodies go through Unmarshal (strict
// about what follows the value, as the scanner is), op streams through a
// Decoder, the way the handler read them before the scanner existed.

func jsonOps(body []byte) ([]Op, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, ErrEmptyBody
	}
	var ops []Op
	if trimmed[0] == '[' {
		err := json.Unmarshal(body, &ops)
		return ops, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var op Op
		if err := dec.Decode(&op); err == io.EOF {
			return ops, nil
		} else if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
}

func scanOps(body []byte) ([]Op, error) {
	var (
		s   Scanner
		op  Op
		ops []Op
	)
	s.Reset(body)
	for {
		// A slot per op, as a caller that keeps every op must.
		if !s.Next(&op, new([LineSize]byte)) {
			return ops, s.Err()
		}
		if op.Addr != nil {
			addr := *op.Addr
			op.Addr = &addr
		}
		ops = append(ops, op)
	}
}

func scanBatch(body []byte) (Batch, error) {
	var (
		s Scanner
		r OpResult
		b Batch
	)
	s.Reset(body)
	for s.NextResult(&r, new([LineSize]byte)) {
		b.Results = append(b.Results, r)
	}
	return b, s.Err()
}

func sameOps(t *testing.T, body []byte, got, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: scanner read %d ops, encoding/json %d", body, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Op != w.Op || (g.Addr == nil) != (w.Addr == nil) || (g.Addr != nil && *g.Addr != *w.Addr) ||
			!bytes.Equal(g.Data, w.Data) || (g.Data == nil) != (w.Data == nil) {
			t.Fatalf("%q: op %d: scanner %s, encoding/json %s", body, i, showOp(g), showOp(w))
		}
	}
}

func showOp(op Op) string {
	addr := "nil"
	if op.Addr != nil {
		addr = strconv.FormatUint(*op.Addr, 10)
	}
	return fmt.Sprintf("{%q %s %#v}", op.Op, addr, op.Data)
}

func sameBatch(t *testing.T, body []byte, got, want Batch) {
	t.Helper()
	// "failed" the scanner checks and drops: its readers count errors.
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%q: scanner read %d results, encoding/json %d", body, len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Addr != w.Addr || g.OK != w.OK || g.Error != w.Error ||
			!bytes.Equal(g.Data, w.Data) || (g.Data == nil) != (w.Data == nil) {
			t.Fatalf("%q: result %d: scanner %#v, encoding/json %#v", body, i, g, w)
		}
	}
}

// batchParserSeeds is the FuzzBatchParser corpus of internal/serve: its
// in-code seeds and whatever its testdata directory holds.
func batchParserSeeds(t testing.TB) [][]byte {
	line := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{7}, LineSize))
	seeds := [][]byte{}
	for _, s := range []string{
		"", "[", "[]", `[{"op":"read","addr":1}]`, `{"op":"read","addr":1}`,
		`{"op":"write","addr":2,"data":"` + line + `"}` + "\n" + `{"op":"read","addr":2}`,
		`{"op":"read","addr":1}` + "\n" + `{"op"`,
		`[{"op":"read","addr":1},{"op":"read"`,
		`{"op":"frobnicate","addr":1}`,
		`{"op":"read","addr":-1}`,
		`{"op":"read","addr":18446744073709551615}`,
		`{"op":"write","addr":1,"data":"!!!"}`,
		`[` + strings.Repeat(`{"op":"read","addr":1},`, 17) + `{"op":"read","addr":1}]`,
		strings.Repeat(`{"op":"read","addr":1}`+"\n", 64),
		`{"op":"write","addr":1,"data":"` + strings.Repeat("A", 1<<15) + `"}`,
		"\x00\x01\x02", `[[[[[[[[[[[[`, `   [ {"op" : "read" } ] `,
	} {
		seeds = append(seeds, []byte(s))
	}
	files, err := filepath.Glob("../serve/testdata/fuzz/FuzzBatchParser/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, ok := strings.Cut(string(raw), "[]byte(")
		if !ok {
			continue
		}
		if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")")); err == nil {
			seeds = append(seeds, []byte(s))
		}
	}
	return seeds
}

// grammarSeeds exercise what the corpus above does not: escapes, unknown
// and nested members, duplicate members, nulls, number shapes, and bodies
// that leave the canonical form after some elements.
var grammarSeeds = []string{
	`{"op":"read","addr":7}`,
	`{"op":"w\\\"\/\b\f\n\r\t😀\ud800x","addr":1}`,
	"{\"op\":\"r\xffead\",\"addr\":1}",
	`{"x":{"a":[1,2.5e-3,{"b":null}],"c":"é"},"op":"read","addr":3,"y":[[],{}]}`,
	`{"addr":1,"addr":null,"op":"read","op":null,"data":"QUJD","data":null}`,
	`{"op":"write","addr":1,"data":"QUJD\nRA=="}`,
	`{"op":"write","addr":1,"data":""}`,
	`[null,{"op":"read","addr":0}]`, `null`, `{"op":"read","addr":1}{"op":"read","addr":2}`,
	`{"op":"read","addr":01}`, `{"op":"read","addr":1.0}`, `{"op":"read","addr":1e2}`, `{"op":"read","addr":-0}`,
	`{"op":"read","addr":18446744073709551616}`, `{"OP":"read","addr":1}`, `{"op":"write","addr":1,"data":[1,2]}`,
	`[{"op":"read","addr":1}] x`, `[{"op":"read","addr":1},]`, `{"op":"read","addr":1,}`, `{"op":"read" "addr":1}`,
	`{"results":[{"addr":1,"data":"QUJD"},{"addr":2,"ok":true},{"addr":3,"error":"core: \"x\""},null],"failed":1}`,
	`{"failed":-0,"z":[{"results":1}],"results":null}`, `{"results":[],"results":[]}`, `{"results":[{"addr":5,"addr":null,"ok":true,"ok":null}]}`,
	`{"failed":9223372036854775808}`, `{"failed":-9223372036854775808}`, `{"Failed":1}`, `{"results":[{"error":"a","ERROR":"b"}]}`,
	`{"x":` + strings.Repeat("[", 66) + strings.Repeat("]", 66) + `}`,
	`[{"op":"read","addr":1},{"addr":2,"op":"read"},{"op":"read","addr":3}]`,
	`{"results":[{"addr":1,"data":"QUJD"}],"results":[{"addr":2,"ok":true}],"failed":0}`,
	`{"results":[{"addr":1}],"failed":0,"results":null}`,
}

// FuzzWireOpsVsJSON holds the request side to encoding/json: the scanner
// accepts a body if and only if encoding/json does, with the same ops; and
// whatever AppendOp renders, both read back as the op it was given.
func FuzzWireOpsVsJSON(f *testing.F) {
	for _, s := range batchParserSeeds(f) {
		f.Add(s, "read", uint64(1), []byte(nil))
	}
	for _, s := range grammarSeeds {
		f.Add([]byte(s), "wri\"te\\\x00\x1f\xff <", uint64(1)<<63, bytes.Repeat([]byte{0xA5}, LineSize))
	}
	f.Fuzz(func(t *testing.T, body []byte, name string, addr uint64, data []byte) {
		sameOpsVsJSON(t, body)

		ops := []Op{{Op: name, Addr: &addr, Data: data}, {Op: "read"}}
		array := append(AppendOp(append(AppendOp([]byte{'['}, ops[0]), ','), ops[1]), ']')
		ndjson := AppendOp(append(AppendOp(nil, ops[0]), '\n'), ops[1])
		for _, enc := range [][]byte{array, ndjson} {
			want, err := jsonOps(enc)
			if err != nil {
				t.Fatalf("encoding/json rejects the encoder's %q: %v", enc, err)
			}
			// The value to expect is what encoding/json's own encoder
			// round-trips to: invalid UTF-8 in a name arrives as U+FFFD.
			ref, _ := json.Marshal(ops)
			var refOps []Op
			if err := json.Unmarshal(ref, &refOps); err != nil {
				t.Fatal(err)
			}
			sameOps(t, enc, want, refOps)
			got, err := scanOps(enc)
			if err != nil {
				t.Fatalf("scanner rejects the encoder's %q: %v", enc, err)
			}
			sameOps(t, enc, got, want)
		}
	})
}

// FuzzWireBatchVsJSON is the same contract on the answer side, and for
// the single-line bodies.
func FuzzWireBatchVsJSON(f *testing.F) {
	for _, s := range batchParserSeeds(f) {
		f.Add(s, "", uint64(0), []byte(nil), false, 0)
	}
	for _, s := range grammarSeeds {
		f.Add([]byte(s), "core: line \"0x1\"\\\x00\n\xfe: never written", uint64(1)<<63, bytes.Repeat([]byte{0x5A}, LineSize), true, -3)
	}
	f.Fuzz(func(t *testing.T, body []byte, msg string, addr uint64, data []byte, ok bool, failed int) {
		sameBatchVsJSON(t, body)
		sameLinesVsJSON(t, body)

		b := Batch{Results: []OpResult{{Addr: addr, Data: data}, {Addr: addr, OK: ok}, {Addr: addr, Error: msg}}, Failed: failed}
		enc := AppendBatch(nil, b)
		var dec, ref Batch
		if err := json.Unmarshal(enc, &dec); err != nil {
			t.Fatalf("encoding/json rejects the encoder's %q: %v", enc, err)
		}
		refEnc, _ := json.Marshal(b)
		if err := json.Unmarshal(refEnc, &ref); err != nil {
			t.Fatal(err)
		}
		sameBatch(t, enc, dec, ref)
		got, err := scanBatch(enc)
		if err != nil {
			t.Fatalf("scanner rejects the encoder's %q: %v", enc, err)
		}
		sameBatch(t, enc, got, dec)

		lenc := AppendLine(nil, Line{Addr: addr, Data: data, OK: ok})
		var jline Line
		if err := json.Unmarshal(lenc, &jline); err != nil {
			t.Fatalf("encoding/json rejects the encoder's %q: %v", lenc, err)
		}
		if jline.Addr != addr || !bytes.Equal(jline.Data, data) || jline.OK != ok {
			t.Fatalf("%q decodes to %#v", lenc, jline)
		}
	})
}

// sameOpsVsJSON, sameBatchVsJSON and sameLinesVsJSON are the contract on
// one body: the scanner accepts it if and only if encoding/json does, and
// then reads the same values.
func sameOpsVsJSON(t *testing.T, body []byte) {
	t.Helper()
	got, err := scanOps(body)
	want, jerr := jsonOps(body)
	if (err == nil) != (jerr == nil) {
		t.Fatalf("%q: scanner says %v, encoding/json %v", body, err, jerr)
	}
	if err == nil {
		sameOps(t, body, got, want)
	}
}

func sameBatchVsJSON(t *testing.T, body []byte) {
	t.Helper()
	got, err := scanBatch(body)
	var want Batch
	if jerr := json.Unmarshal(body, &want); (err == nil) != (jerr == nil) {
		t.Fatalf("%q: scanner says %v, encoding/json %v", body, err, jerr)
	}
	if err == nil {
		sameBatch(t, body, got, want)
	}
}

// sameLinesVsJSON reads body as a /v1/read or /v1/write request and answer.
func sameLinesVsJSON(t *testing.T, body []byte) {
	t.Helper()
	var (
		s     Scanner
		req   LineReq
		jreq  LineReq
		line  Line
		jline Line
	)
	s.Reset(body)
	err, jerr := s.LineReq(&req, new([LineSize]byte)), json.Unmarshal(body, &jreq)
	if (err == nil) != (jerr == nil) {
		t.Fatalf("%q as LineReq: scanner says %v, encoding/json %v", body, err, jerr)
	}
	if err == nil {
		sameOps(t, body, []Op{{Addr: req.Addr, Data: req.Data}}, []Op{{Addr: jreq.Addr, Data: jreq.Data}})
	}
	s.Reset(body)
	err, jerr = s.Line(&line, new([LineSize]byte)), json.Unmarshal(body, &jline)
	if (err == nil) != (jerr == nil) {
		t.Fatalf("%q as Line: scanner says %v, encoding/json %v", body, err, jerr)
	}
	if err == nil {
		sameBatch(t, body, Batch{Results: []OpResult{{Addr: line.Addr, Data: line.Data, OK: line.OK}}},
			Batch{Results: []OpResult{{Addr: jline.Addr, Data: jline.Data, OK: jline.OK}}})
	}
}

// TestFormerNarrowingsAccepted: case-folded keys, "data" as an array of
// byte values, deep nesting under an unknown key and a repeated "results"
// member are read as encoding/json reads them. What follows the body's
// value must still be whitespace, as Unmarshal requires.
func TestFormerNarrowingsAccepted(t *testing.T) {
	deep := strings.Repeat("[", 66) + strings.Repeat("]", 66)
	for _, c := range []struct{ name, ops, batch string }{
		{"case-folded key", `{"Op":"read","ADDR":1}`, `{"Results":[{"ADDR":1}],"FAILED":0}`},
		{"data as an array", `{"op":"write","addr":1,"data":[1,2,3]}`, `{"results":[{"addr":1,"data":[1,2,3]}]}`},
		{"deep nesting", `{"op":"read","addr":1,"x":` + deep + `}`, `{"results":[{"addr":1}],"x":` + deep + `}`},
		{"second results member", `{"op":"read","addr":1,"results":[],"results":[]}`, `{"results":[{"addr":9}],"results":[{"addr":1,"data":"AQID"}]}`},
	} {
		if _, err := scanOps([]byte(c.ops)); err != nil {
			t.Errorf("%s: %s refused: %v", c.name, c.ops, err)
		}
		if _, err := scanBatch([]byte(c.batch)); err != nil {
			t.Errorf("%s: %s refused: %v", c.name, c.batch, err)
		}
		sameOpsVsJSON(t, []byte(c.ops))
		sameBatchVsJSON(t, []byte(c.batch))
	}
	for _, body := range []string{`[{"op":"read","addr":1}] x`, `[] []`, `[]]`} {
		if _, err := scanOps([]byte(body)); err == nil {
			t.Errorf("scanner accepts %s", body)
		}
	}
	var s Scanner
	s.Reset([]byte(`{"addr":1} {"addr":2}`))
	if err := s.LineReq(new(LineReq), nil); err == nil {
		t.Error("LineReq accepts two objects")
	}
}

// TestScannerAcceptsWhatJSONAccepts pins the grammar the fallback brings:
// unknown and nested members skipped, escapes resolved, nulls and
// duplicates resolved the way encoding/json resolves them, and a body that
// leaves the canonical form after some elements read whole.
func TestScannerAcceptsWhatJSONAccepts(t *testing.T) {
	for _, body := range grammarSeeds {
		sameOpsVsJSON(t, []byte(body))
		sameBatchVsJSON(t, []byte(body))
		sameLinesVsJSON(t, []byte(body))
	}
	ops, err := scanOps([]byte(`{"x":{"a":[1,{"b":null}]},"op":"read","addr":7}`))
	if err != nil || len(ops) != 1 || ops[0].Op != "read" || ops[0].Addr == nil || *ops[0].Addr != 7 {
		t.Fatalf("escaped and unknown members: %v %v", ops, err)
	}
	// A canonical prefix, then a reordered op: each op once, in order.
	for _, body := range []string{
		`[{"op":"read","addr":1},{"op":"read","addr":2},{"addr":3,"op":"read"},{"op":"read","addr":4}]`,
		`{"op":"read","addr":1}` + "\n" + `{"op":"read","addr":2}` + "\n" + `{"addr":3,"op":"read"}` + "\n" + `{"op":"read","addr":4}`,
	} {
		ops, err := scanOps([]byte(body))
		if err != nil || len(ops) != 4 {
			t.Fatalf("%s: %d ops, %v", body, len(ops), err)
		}
		for i, op := range ops {
			if *op.Addr != uint64(i+1) {
				t.Fatalf("%s: op %d has addr %d", body, i, *op.Addr)
			}
		}
	}
}

// TestDecodeInPlace: a canonical payload lands in the caller's slot, any
// other length in a slice of its own with its real length, and a payload
// shaped like a line but longer than one cannot overrun the slot.
func TestDecodeInPlace(t *testing.T) {
	line := bytes.Repeat([]byte{0xC3}, LineSize)
	var (
		s    Scanner
		op   Op
		slot [LineSize]byte
	)
	scan := func(data string) Op {
		t.Helper()
		s.Reset([]byte(`{"op":"write","addr":1,"data":"` + data + `"}`))
		if !s.Next(&op, &slot) {
			t.Fatalf("data %q: %v", data, s.Err())
		}
		return op
	}
	if op := scan(base64.StdEncoding.EncodeToString(line)); !bytes.Equal(op.Data, line) || &op.Data[0] != &slot[0] {
		t.Fatal("a 64-byte payload must decode into the slot")
	}
	for _, n := range []int{0, 5, 63, 65, 66, 200} {
		p := bytes.Repeat([]byte{byte(n)}, n)
		op := scan(base64.StdEncoding.EncodeToString(p))
		if !bytes.Equal(op.Data, p) {
			t.Fatalf("%d-byte payload decoded to %d bytes", n, len(op.Data))
		}
		if n > 0 && &op.Data[0] == &slot[0] {
			t.Fatalf("%d-byte payload decoded into the slot", n)
		}
	}
	// lineChars characters without padding are 66 bytes.
	if op := scan(strings.Repeat("AAAA", lineChars/4)); len(op.Data) != 66 {
		t.Fatalf("unpadded %d characters decoded to %d bytes", lineChars, len(op.Data))
	}
	// Off the canonical form, encoding/json decodes the line, and it
	// still lands in the slot: in a request, an answer and a line body.
	enc := base64.StdEncoding.EncodeToString(line)
	slot = [LineSize]byte{}
	s.Reset([]byte(`{"addr":1,"op":"write","data":"` + enc + `"}`))
	if !s.Next(&op, &slot) || !bytes.Equal(op.Data, line) || &op.Data[0] != &slot[0] {
		t.Fatalf("reordered op: %v, data in the slot: %v", s.Err(), len(op.Data) > 0 && &op.Data[0] == &slot[0])
	}
	var r OpResult
	slot = [LineSize]byte{}
	s.Reset([]byte(`{"results":[{"data":"` + enc + `","addr":1}],"failed":0}`))
	if !s.NextResult(&r, &slot) || !bytes.Equal(r.Data, line) || &r.Data[0] != &slot[0] {
		t.Fatalf("reordered result: %v", s.Err())
	}
	var l Line
	slot = [LineSize]byte{}
	s.Reset([]byte(`{"data":"` + enc + `","addr":1}`))
	if err := s.Line(&l, &slot); err != nil || !bytes.Equal(l.Data, line) || &l.Data[0] != &slot[0] {
		t.Fatalf("reordered line: %v", err)
	}
}

// TestCodecAllocations pins the hot path: encoding a 64-op batch either
// way and scanning the request allocate nothing; scanning the answer
// allocates nothing beyond the caller's slab.
func TestCodecAllocations(t *testing.T) {
	req, resp, ops, results := benchBodies()
	buf := make([]byte, 0, 2*len(resp))
	var (
		s     Scanner
		op    Op
		r     OpResult
		slots [65][LineSize]byte // one more: the call that finds the end takes a slot too
	)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"encode request", func() { buf = appendOps(buf[:0], ops) }},
		{"encode answer", func() { buf = AppendBatch(buf[:0], Batch{Results: results}) }},
		{"scan request", func() {
			s.Reset(req)
			for i := 0; s.Next(&op, &slots[i]); i++ {
			}
		}},
		{"scan answer", func() {
			s.Reset(resp)
			for i := 0; s.NextResult(&r, &slots[i]); i++ {
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != 0 {
			t.Errorf("%s allocates %.1f times per 64-op batch, want 0", c.name, got)
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
	}
}

func TestReadBody(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 500)
	for _, hint := range []int64{-1, 0, 10, int64(len(want)), int64(len(want)) + 100, 1 << 40} {
		got, err := ReadBody(nil, iotest.OneByteReader(bytes.NewReader(want)), hint)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("hint %d: %d bytes, %v", hint, len(got), err)
		}
		if hint > 1<<20 && cap(got) > 2<<20 {
			t.Fatalf("hint %d trusted: cap %d", hint, cap(got))
		}
	}
	buf := make([]byte, 0, len(want)+1)
	got, err := ReadBody(buf, bytes.NewReader(want), int64(len(want)))
	if err != nil || &got[0] != &buf[:1][0] {
		t.Fatal("a buffer with room for the announced length must be reused")
	}
	boom := errors.New("boom")
	if _, err := ReadBody(nil, iotest.ErrReader(boom), 5); err != boom {
		t.Fatalf("read error: %v", err)
	}
}
