package wire

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"attache/internal/shard"
)

// frameSeed is a frame for a reader to read, and the error it must give.
type frameSeed struct {
	body   []byte
	answer bool // an answer frame; else a request
	want   string
}

// frameSeeds are request and answer frames, whole and broken each way a
// reader must refuse: torn, a count the bytes cannot hold, a length past
// the end, an unknown version, kind or status, an empty error, and a byte
// after the last item.
func frameSeeds() []frameSeed {
	bb := benchBodies()
	req := AppendFrameOps(nil, bb.ops[:4]) // a write, then three reads
	resp := AppendFrameBatch(nil, Batch{Results: []OpResult{{Addr: 1, Data: bb.ops[0].Data}, {Addr: 2, OK: true},
		{Addr: 3, Error: "core: line 0x3: never written"}}, Failed: 1})
	set := func(b []byte, at int, v byte) []byte {
		b = bytes.Clone(b)
		b[at] = v
		return b
	}
	emptyErr := AppendFrameBatch(nil, Batch{Results: []OpResult{{Addr: 1, Error: "x"}}, Failed: 1})
	emptyErr = set(emptyErr[:len(emptyErr)-1], len(emptyErr)-5, 0)
	return []frameSeed{
		{req, false, ""},
		{resp, true, ""},
		{AppendFrameOps(nil, nil), false, ""},
		{AppendFrameBatch(nil, Batch{}), true, ""},
		{AppendFrameOps(nil, []shard.Op{{Write: true, Addr: 9, Data: []byte("short")}}), false, ""},
		{req[:opsHeader-1], false, "torn header"},
		{req[:len(req)-1], false, "payload runs past the end"},
		{resp[:len(resp)-3], true, "item 0x3: payload runs past the end"},
		{set(req, len(frameMagic), 2), false, "unsupported version 2"},
		{set(req, opsHeader, 7), false, "unknown kind 7"},
		{set(resp, opsHeader+4, 9), true, "unknown status 9"},
		{set(req, len(frameMagic)+5, 0xFF), false, "cannot fit"},
		{set(req, opsHeader+itemHeader+3, 0x7F), false, "item 0x0: payload runs past the end"},
		{append(bytes.Clone(req), 0), false, "1 bytes after the last item"},
		{emptyErr, true, "empty error"},
		{emptyErr[:len(emptyErr)-2], true, "item 0x1: payload runs past the end"},
	}
}

// readFrame decodes body as a request frame and as an answer frame. What
// either accepts must be exactly what the encoder renders for the values
// read, and what either decodes must add up to no more than the body.
func readFrame(t *testing.T, body []byte) {
	t.Helper()
	var (
		f       Frame
		op      Op
		r       OpResult
		ops     []shard.Op
		results []OpResult
		decoded int
	)
	n, err := f.Ops(body)
	for err == nil && f.Next(&op, new([LineSize]byte)) {
		ops = append(ops, shard.Op{Write: op.Op == "write", Addr: *op.Addr, Data: op.Data})
		decoded += len(op.Data)
	}
	if decoded > len(body) {
		t.Fatalf("%x: a %d-byte request decoded %d payload bytes", body, len(body), decoded)
	}
	if err == nil && f.Err() == nil {
		if re := AppendFrameOps(nil, ops); len(ops) != n || !bytes.Equal(re, body) {
			t.Fatalf("accepted request %x (%d of %d ops) renders back as %x", body, len(ops), n, re)
		}
	}
	n, failed, err := f.Results(body)
	decoded = 0
	for err == nil && f.NextResult(&r, new([LineSize]byte)) {
		results = append(results, r)
		decoded += len(r.Data) + len(r.Error)
	}
	if decoded > len(body) {
		t.Fatalf("%x: a %d-byte answer decoded %d payload bytes", body, len(body), decoded)
	}
	if err == nil && f.Err() == nil {
		if re := AppendFrameBatch(nil, Batch{Results: results, Failed: failed}); len(results) != n || !bytes.Equal(re, body) {
			t.Fatalf("accepted answer %x (%d of %d results) renders back as %x", body, len(results), n, re)
		}
	}
}

// FuzzFrameVsJSON holds the frame to the JSON bodies it stands in for:
// ops and answers rendered both ways read back as equal values. And
// arbitrary bytes behind the magic are never JSON, never panic a reader,
// never decode to more than their own length, and are refused unless
// they are a frame the encoder renders.
func FuzzFrameVsJSON(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s.body[len(frameMagic):], uint64(1), bytes.Repeat([]byte{0xA5}, LineSize), "core: never written")
	}
	f.Add([]byte{}, uint64(1)<<63, []byte(nil), "")
	f.Add([]byte{1, 0}, ^uint64(0), []byte("short"), "\xff\x00\"")
	f.Fuzz(func(t *testing.T, raw []byte, addr uint64, data []byte, msg string) {
		body := append([]byte(frameMagic), raw...)
		if json.Valid(body) {
			t.Fatalf("%q is valid JSON", body)
		}
		readFrame(t, body)

		a0, a1, a2 := addr, addr, ^addr
		ops := []shard.Op{{Addr: a0}, {Write: true, Addr: a1, Data: data}, {Write: true, Addr: a2}}
		var fromFrame []Op
		var fr Frame
		var op Op
		enc := AppendFrameOps(nil, ops)
		if _, err := fr.Ops(enc); err != nil {
			t.Fatal(err)
		}
		for fr.Next(&op, new([LineSize]byte)) {
			a := *op.Addr
			op.Addr = &a
			fromFrame = append(fromFrame, op)
		}
		if fr.Err() != nil {
			t.Fatalf("%x: %v", enc, fr.Err())
		}
		jenc, _ := json.Marshal([]Op{{Op: "read", Addr: &a0}, {Op: "write", Addr: &a1, Data: data}, {Op: "write", Addr: &a2}})
		fromJSON, err := jsonOps(jenc)
		if err != nil {
			t.Fatal(err)
		}
		sameOps(t, enc, fromFrame, fromJSON)

		// A message JSON can carry as it is: valid UTF-8, never empty.
		b := Batch{Results: []OpResult{{Addr: addr, Data: data}, {Addr: addr, OK: true}, {Addr: ^addr, Error: strconv.Quote(msg)}}, Failed: 1}
		enc = AppendFrameBatch(nil, b)
		var got, want Batch
		var r OpResult
		n, failed, err := fr.Results(enc)
		for err == nil && fr.NextResult(&r, new([LineSize]byte)) {
			got.Results = append(got.Results, r)
		}
		if err != nil || fr.Err() != nil || n != 3 || failed != 1 {
			t.Fatalf("%x: %d results, %d failed: %v %v", enc, n, failed, err, fr.Err())
		}
		jenc, _ = json.Marshal(b)
		if err := json.Unmarshal(jenc, &want); err != nil {
			t.Fatal(err)
		}
		sameBatch(t, enc, got, want)
	})
}

// TestFrameSeeds pins what the frame reader makes of each seed.
func TestFrameSeeds(t *testing.T) {
	for i, s := range frameSeeds() {
		var (
			f   Frame
			op  Op
			r   OpResult
			err error
		)
		if s.answer {
			_, _, err = f.Results(s.body)
			for err == nil && f.NextResult(&r, nil) {
			}
		} else {
			_, err = f.Ops(s.body)
			for err == nil && f.Next(&op, nil) {
			}
		}
		if err == nil {
			err = f.Err()
		}
		switch {
		case err == nil && s.want != "":
			t.Errorf("seed %d: accepted, want %q", i, s.want)
		case err != nil && (s.want == "" || !strings.Contains(err.Error(), s.want)):
			t.Errorf("seed %d: %q, want %q", i, err, s.want)
		}
		readFrame(t, s.body)
	}
}

// TestFrameIsNeverJSON: the magic's first byte opens no JSON text,
// whatever follows it, so a server that dispatches on that byte changes
// the meaning of no body it accepted before the frame.
func TestFrameIsNeverJSON(t *testing.T) {
	for _, suffix := range []string{"", " ", "\n", "{}", "[]", `"x"`, "0", "-1", "null", "true", `[{"op":"read","addr":1}]`, "ATF\x01\x00"} {
		body := []byte(frameMagic[:1] + suffix)
		if !IsFrame(body) || json.Valid(body) {
			t.Errorf("%q: IsFrame %v, json.Valid %v", body, IsFrame(body), json.Valid(body))
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(new(Op)); err == nil {
			t.Errorf("%q decodes as a JSON op", body)
		}
		if _, err := jsonOps(body); err == nil {
			t.Errorf("%q reads as JSON ops", body)
		}
	}
	for _, body := range []string{"", " [", "{", "[", `"`, "0", "n"} {
		if IsFrame([]byte(body)) {
			t.Errorf("%q is taken for a frame", body)
		}
	}
}

// TestFrameDecodeInPlace: a 64-byte payload lands in the caller's slot on
// both sides, any other length in a slice of its own with its real
// length, and an empty one as nil.
func TestFrameDecodeInPlace(t *testing.T) {
	line := bytes.Repeat([]byte{0xC3}, LineSize)
	for _, p := range [][]byte{line, nil, []byte("short"), bytes.Repeat([]byte{1}, LineSize+1)} {
		var (
			f    Frame
			op   Op
			r    OpResult
			slot [LineSize]byte
		)
		f.Ops(AppendFrameOps(nil, []shard.Op{{Write: true, Addr: 1, Data: p}}))
		if !f.Next(&op, &slot) {
			t.Fatal(f.Err())
		}
		f.Results(AppendFrameBatch(nil, Batch{Results: []OpResult{{Addr: 1, Data: p}}}))
		if !f.NextResult(&r, &slot) {
			t.Fatal(f.Err())
		}
		for _, data := range [][]byte{op.Data, r.Data} {
			inSlot := len(data) > 0 && &data[0] == &slot[0]
			if !bytes.Equal(data, p) || (data == nil) != (p == nil) || inSlot != (len(p) == LineSize) {
				t.Errorf("%d-byte payload read as %d bytes, in the slot: %v", len(p), len(data), inSlot)
			}
		}
	}
}
