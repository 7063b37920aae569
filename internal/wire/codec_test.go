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

// narrowing names the documented reason the scanner may reject a body
// encoding/json takes, or "" when there is none. It over-approximates
// (any key, any depth): the fuzz targets only need "none of these".
//
//  1. a key that matches a declared member only after case folding;
//  2. a "data" member that is an array of byte values, not a string;
//  3. a value under an unknown key nested deeper than maxSkipDepth;
//  4. a second "results" member.
func narrowing(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	type frame struct{ object, wantKey bool }
	var (
		stack   []frame
		results int
		lastKey string
	)
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		top := len(stack) - 1
		isKey := top >= 0 && stack[top].object && stack[top].wantKey
		if top >= 0 && stack[top].object {
			stack[top].wantKey = !stack[top].wantKey
		}
		switch v := tok.(type) {
		case json.Delim:
			switch v {
			case '{', '[':
				if v == '[' && lastKey == "data" {
					return "data as an array"
				}
				stack = append(stack, frame{object: v == '{', wantKey: true})
				if len(stack) > maxSkipDepth {
					return "deep nesting"
				}
			default:
				stack = stack[:top]
				if len(stack) > 0 && stack[len(stack)-1].object {
					stack[len(stack)-1].wantKey = true
				}
			}
			lastKey = ""
		case string:
			lastKey = ""
			if !isKey {
				break
			}
			lastKey = v
			for _, name := range keyNames {
				if v != name && strings.EqualFold(v, name) {
					return "case-folded key"
				}
			}
			if v == "results" {
				if results++; results > 1 {
					return "second results member"
				}
			}
		default:
			lastKey = ""
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
// and nested members, duplicate members, nulls, number shapes.
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
	`{"x":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `}`,
}

// FuzzWireOpsVsJSON holds the request side to encoding/json: a body the
// scanner accepts, encoding/json accepts with the same ops; a body only
// encoding/json accepts is one of the documented narrowings; and whatever
// AppendOp renders, both read back as the op it was given.
func FuzzWireOpsVsJSON(f *testing.F) {
	for _, s := range batchParserSeeds(f) {
		f.Add(s, "read", uint64(1), []byte(nil))
	}
	for _, s := range grammarSeeds {
		f.Add([]byte(s), "wri\"te\\\x00\x1f\xff <", uint64(1)<<63, bytes.Repeat([]byte{0xA5}, LineSize))
	}
	f.Fuzz(func(t *testing.T, body []byte, name string, addr uint64, data []byte) {
		got, err := scanOps(body)
		want, jerr := jsonOps(body)
		switch {
		case err == nil && jerr != nil:
			t.Fatalf("%q: scanner accepts, encoding/json says %v", body, jerr)
		case err == nil:
			sameOps(t, body, got, want)
		case jerr == nil && narrowing(body) == "":
			t.Fatalf("%q: encoding/json accepts (%d ops), scanner says %v", body, len(want), err)
		}

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
		got, err := scanBatch(body)
		var want Batch
		jerr := json.Unmarshal(body, &want)
		switch {
		case err == nil && jerr != nil:
			t.Fatalf("%q: scanner accepts, encoding/json says %v", body, jerr)
		case err == nil:
			sameBatch(t, body, got, want)
		case jerr == nil && narrowing(body) == "":
			t.Fatalf("%q: encoding/json accepts, scanner says %v", body, err)
		}

		// The same bytes as a /v1/read or /v1/write body.
		var (
			s       Scanner
			req     LineReq
			jreq    LineReq
			line    Line
			jline   Line
			lineErr = json.Unmarshal(body, &jline)
			reqErr  = json.Unmarshal(body, &jreq)
		)
		s.Reset(body)
		if err := s.LineReq(&req, new([LineSize]byte)); err == nil {
			if reqErr != nil {
				t.Fatalf("%q: LineReq accepts, encoding/json says %v", body, reqErr)
			}
			sameOps(t, body, []Op{{Addr: req.Addr, Data: req.Data}}, []Op{{Addr: jreq.Addr, Data: jreq.Data}})
		} else if reqErr == nil && narrowing(body) == "" {
			t.Fatalf("%q: encoding/json accepts as LineReq, scanner says %v", body, err)
		}
		s.Reset(body)
		if err := s.Line(&line, new([LineSize]byte)); err == nil {
			if lineErr != nil {
				t.Fatalf("%q: Line accepts, encoding/json says %v", body, lineErr)
			}
			sameBatch(t, body, Batch{Results: []OpResult{{Addr: line.Addr, Data: line.Data, OK: line.OK}}},
				Batch{Results: []OpResult{{Addr: jline.Addr, Data: jline.Data, OK: jline.OK}}})
		} else if lineErr == nil && narrowing(body) == "" {
			t.Fatalf("%q: encoding/json accepts as Line, scanner says %v", body, err)
		}

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
		got, err = scanBatch(enc)
		if err != nil {
			t.Fatalf("scanner rejects the encoder's %q: %v", enc, err)
		}
		sameBatch(t, enc, got, dec)

		lenc := AppendLine(nil, Line{Addr: addr, Data: data, OK: ok})
		jline = Line{}
		if err := json.Unmarshal(lenc, &jline); err != nil {
			t.Fatalf("encoding/json rejects the encoder's %q: %v", lenc, err)
		}
		if jline.Addr != addr || !bytes.Equal(jline.Data, data) || jline.OK != ok {
			t.Fatalf("%q decodes to %#v", lenc, jline)
		}
	})
}

// TestNarrowings pins each body encoding/json takes and the scanner
// refuses — the whole list DESIGN.md documents — and the one the handler
// used to take only because its Decoder never looked past the array.
func TestNarrowings(t *testing.T) {
	deep := strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2)
	for _, c := range []struct {
		name, ops, batch string
	}{
		{"case-folded key", `{"Op":"read","ADDR":1}`, `{"Results":[],"FAILED":0}`},
		{"data as an array", `{"op":"write","addr":1,"data":[1,2,3]}`, `{"results":[{"addr":1,"data":[1,2,3]}]}`},
		{"deep nesting", `{"op":"read","addr":1,"x":` + deep + `}`, `{"results":[],"x":` + deep + `}`},
		{"second results member", "", `{"results":[{"addr":1}],"results":[]}`},
	} {
		if c.ops != "" {
			if _, err := jsonOps([]byte(c.ops)); err != nil {
				t.Errorf("%s: encoding/json rejects %s: %v", c.name, c.ops, err)
			}
			if _, err := scanOps([]byte(c.ops)); err == nil {
				t.Errorf("%s: scanner accepts %s", c.name, c.ops)
			}
			if got := narrowing([]byte(c.ops)); got != c.name {
				t.Errorf("%s: %s classified as %q", c.name, c.ops, got)
			}
		}
		var b Batch
		if err := json.Unmarshal([]byte(c.batch), &b); err != nil {
			t.Errorf("%s: encoding/json rejects %s: %v", c.name, c.batch, err)
		}
		if _, err := scanBatch([]byte(c.batch)); err == nil {
			t.Errorf("%s: scanner accepts %s", c.name, c.batch)
		}
		if got := narrowing([]byte(c.batch)); got != c.name {
			t.Errorf("%s: %s classified as %q", c.name, c.batch, got)
		}
	}
	// Past the value: a Decoder stops reading there, the scanner and
	// Unmarshal do not.
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

// TestScannerAcceptsWhatJSONAccepts pins the grammar outside the
// narrowings: unknown and nested members skipped, escapes resolved, nulls
// and duplicates resolved the way encoding/json resolves them.
func TestScannerAcceptsWhatJSONAccepts(t *testing.T) {
	for _, body := range grammarSeeds {
		got, err := scanOps([]byte(body))
		want, jerr := jsonOps([]byte(body))
		if (err == nil) != (jerr == nil) && narrowing([]byte(body)) == "" {
			t.Errorf("%s: scanner %v, encoding/json %v", body, err, jerr)
		} else if err == nil && jerr == nil {
			sameOps(t, []byte(body), got, want)
		}
		gotB, err := scanBatch([]byte(body))
		var wantB Batch
		jerr = json.Unmarshal([]byte(body), &wantB)
		if (err == nil) != (jerr == nil) && narrowing([]byte(body)) == "" {
			t.Errorf("%s: batch scanner %v, encoding/json %v", body, err, jerr)
		} else if err == nil && jerr == nil {
			sameBatch(t, []byte(body), gotB, wantB)
		}
	}
	ops, err := scanOps([]byte(`{"x":{"a":[1,{"b":null}]},"op":"read","addr":7}`))
	if err != nil || len(ops) != 1 || ops[0].Op != "read" || ops[0].Addr == nil || *ops[0].Addr != 7 {
		t.Fatalf("escaped and unknown members: %v %v", ops, err)
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
