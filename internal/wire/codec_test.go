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
// whatever json.Marshal renders, in either form, the scanner reads back.
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
		array, _ := json.Marshal(ops)
		first, _ := json.Marshal(ops[0])
		second, _ := json.Marshal(ops[1])
		ndjson := append(append(first, '\n'), second...)
		for _, enc := range [][]byte{array, ndjson} {
			want, err := jsonOps(enc)
			if err != nil {
				t.Fatalf("encoding/json rejects its own %q: %v", enc, err)
			}
			got, err := scanOps(enc)
			if err != nil {
				t.Fatalf("scanner rejects the encoder's %q: %v", enc, err)
			}
			sameOps(t, enc, got, want)
		}
	})
}

// sameOpsVsJSON is the contract on one body: the scanner accepts it if
// and only if encoding/json does, and then reads the same ops.
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

// TestFormerNarrowingsAccepted: case-folded keys, "data" as an array of
// byte values, deep nesting under an unknown key and a repeated member
// are read as encoding/json reads them. What follows the body's value
// must still be whitespace, as Unmarshal requires.
func TestFormerNarrowingsAccepted(t *testing.T) {
	deep := strings.Repeat("[", 66) + strings.Repeat("]", 66)
	for _, c := range []struct{ name, ops string }{
		{"case-folded key", `{"Op":"read","ADDR":1}`},
		{"data as an array", `{"op":"write","addr":1,"data":[1,2,3]}`},
		{"deep nesting", `{"op":"read","addr":1,"x":` + deep + `}`},
		{"second results member", `{"op":"read","addr":1,"results":[],"results":[]}`},
	} {
		if _, err := scanOps([]byte(c.ops)); err != nil {
			t.Errorf("%s: %s refused: %v", c.name, c.ops, err)
		}
		sameOpsVsJSON(t, []byte(c.ops))
	}
	for _, body := range []string{`[{"op":"read","addr":1}] x`, `[] []`, `[]]`} {
		if _, err := scanOps([]byte(body)); err == nil {
			t.Errorf("scanner accepts %s", body)
		}
	}
}

// TestScannerAcceptsWhatJSONAccepts pins the grammar the fallback brings:
// unknown and nested members skipped, escapes resolved, nulls and
// duplicates resolved the way encoding/json resolves them, and a body that
// leaves the canonical form after some elements read whole.
func TestScannerAcceptsWhatJSONAccepts(t *testing.T) {
	for _, body := range grammarSeeds {
		sameOpsVsJSON(t, []byte(body))
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
	// A line's 88 base64 characters without padding are 66 bytes.
	if op := scan(strings.Repeat("AAAA", 22)); len(op.Data) != 66 {
		t.Fatalf("88 unpadded characters decoded to %d bytes", len(op.Data))
	}
	// Reordered members change nothing: the line still lands in the slot.
	enc := base64.StdEncoding.EncodeToString(line)
	slot = [LineSize]byte{}
	s.Reset([]byte(`{"addr":1,"op":"write","data":"` + enc + `"}`))
	if !s.Next(&op, &slot) || !bytes.Equal(op.Data, line) || &op.Data[0] != &slot[0] {
		t.Fatalf("reordered op: %v, data in the slot: %v", s.Err(), len(op.Data) > 0 && &op.Data[0] == &slot[0])
	}
}

// TestCodecAllocations pins the hot path: encoding a 64-op batch as a
// frame and scanning it allocate nothing, request and answer alike.
func TestCodecAllocations(t *testing.T) {
	bb := benchBodies()
	buf := make([]byte, 0, 2*len(bb.resp))
	var (
		f     Frame
		op    Op
		r     OpResult
		slots [65][LineSize]byte // one more: the call that finds the end takes a slot too
	)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"frame encode request", func() { buf = AppendFrameOps(buf[:0], bb.ops) }},
		{"frame encode answer", func() { buf = AppendFrameBatch(buf[:0], Batch{Results: bb.results}) }},
		{"frame scan request", func() {
			f.Ops(bb.frameReq)
			for i := 0; f.Next(&op, &slots[i]); i++ {
			}
		}},
		{"frame scan answer", func() {
			f.Results(bb.frameResp)
			for i := 0; f.NextResult(&r, &slots[i]); i++ {
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != 0 {
			t.Errorf("%s allocates %.1f times per 64-op batch, want 0", c.name, got)
		}
		if f.Err() != nil {
			t.Fatal(f.Err())
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
