package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"attache/internal/loadgen"
	"attache/internal/shard"
)

// TestTraceRoundTrip: encode→decode is the identity on a composed
// scenario stream — kinds, addresses, payloads, and offsets all survive.
func TestTraceRoundTrip(t *testing.T) {
	spec, err := Preset("zipfian-hot-page", 9, 300)
	if err != nil {
		t.Fatal(err)
	}
	events, err := Compose(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, decoded) {
		t.Fatal("decode(encode(events)) != events")
	}
	if OpChecksum(events) != OpChecksum(decoded) {
		t.Fatal("op checksum changed across the codec")
	}
	if loadgen.Checksum(events) != loadgen.Checksum(decoded) {
		t.Fatal("full checksum changed across the codec (offsets lost?)")
	}
}

// TestTraceEmptyCapture: a header-only stream (a capture that saw no
// traffic) decodes to zero events, not an error.
func TestTraceEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	events, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("got %d events from an empty capture", len(events))
	}
}

// TestTraceDecodeMalformed: every malformed input is a descriptive
// error, never a panic, never a silent partial success.
func TestTraceDecodeMalformed(t *testing.T) {
	header := `{"format":"attache-trace","version":1}` + "\n"
	cases := []struct {
		name, input, wantSub string
	}{
		{"empty input", "", "missing header"},
		{"blank lines only", "\n\n\n", "missing header"},
		{"wrong format", `{"format":"other-trace","version":1}` + "\n", `format "other-trace"`},
		{"future version", `{"format":"attache-trace","version":2}` + "\n", "unsupported version 2"},
		{"header not json", "attache-trace v1\n", "bad header"},
		{"event bad json", header + `{"at":5,"ops":[` + "\n", "line 2"},
		{"event not object", header + `[1,2,3]` + "\n", "line 2"},
		{"negative offset", header + `{"at":-1,"ops":[{"a":1}]}` + "\n", "negative offset"},
		{"no ops", header + `{"at":0,"ops":[]}` + "\n", "no ops"},
		{"read with data", header + `{"at":0,"ops":[{"a":1,"d":"QUJD"}]}` + "\n", "carries data"},
		{"trailing garbage", header + `{"at":0,"ops":[{"a":1}]} extra` + "\n", "trailing data"},
		{"bad base64", header + `{"at":0,"ops":[{"w":true,"a":1,"d":"!!"}]}` + "\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTrace(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("malformed trace accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestTraceDecodeOversizedEvent: an event claiming more ops than the cap
// is rejected before it can balloon memory.
func TestTraceDecodeOversizedEvent(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"format":"attache-trace","version":1}` + "\n")
	sb.WriteString(`{"at":0,"ops":[`)
	for i := 0; i <= maxTraceOps; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"a":%d}`, i)
	}
	sb.WriteString(`]}` + "\n")
	_, err := DecodeTrace(strings.NewReader(sb.String()))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized event not rejected: %v", err)
	}
}

// TestTraceDecodeNormalizesKinds: captures do not store event kinds; the
// decoder rederives them from op shape.
func TestTraceDecodeNormalizesKinds(t *testing.T) {
	input := `{"format":"attache-trace","version":1}
{"at":0,"ops":[{"a":1}]}
{"at":1,"ops":[{"w":true,"a":2,"d":"` + strings.Repeat("A", 88) + `"}]}
{"at":2,"ops":[{"a":3},{"a":4}]}
`
	events, err := DecodeTrace(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []loadgen.Kind{loadgen.Read, loadgen.Write, loadgen.Batch}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, k := range want {
		if events[i].Kind != k {
			t.Fatalf("event %d kind %v, want %v", i, events[i].Kind, k)
		}
	}
}

// TestTraceWriterConcurrent: the recorder takes events from many
// goroutines (the serve layer records per request), deep-copies
// payloads, and still yields a well-formed, decodable capture.
func TestTraceWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)

	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			line := make([]byte, 64)
			for i := 0; i < perG; i++ {
				for b := range line {
					line[b] = byte(g)
				}
				tw.RecordOps([]shard.Op{{Write: true, Addr: uint64(g*1000 + i), Data: line}})
				// The writer must have copied: clobber the buffer.
				line[0] = 0xFF
			}
		}(g)
	}
	wg.Wait()
	tw.RecordOps(nil) // no-op, not an empty event
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() != goroutines*perG {
		t.Fatalf("recorded %d events, want %d", tw.Events(), goroutines*perG)
	}
	events, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != goroutines*perG {
		t.Fatalf("decoded %d events, want %d", len(events), goroutines*perG)
	}
	for i, ev := range events {
		if i > 0 && ev.At < events[i-1].At {
			t.Fatalf("event %d offset %v precedes %v — offsets must be non-decreasing", i, ev.At, events[i-1].At)
		}
		op := ev.Ops[0]
		g := op.Addr / 1000
		if op.Data[0] != byte(g) || op.Data[63] != byte(g) {
			t.Fatalf("event %d payload was not deep-copied at record time", i)
		}
	}
}

// EncodeTrace writes events as a tracev1 NDJSON stream.
func EncodeTrace(w io.Writer, events []loadgen.Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Format: TraceFormat, Version: TraceVersion}); err != nil {
		return fmt.Errorf("workload: encode trace header: %w", err)
	}
	for i, ev := range events {
		te := traceEvent{At: int64(ev.At), Ops: make([]traceOp, len(ev.Ops))}
		for j, op := range ev.Ops {
			te.Ops[j] = traceOp{Write: op.Write, Addr: op.Addr, Data: op.Data}
		}
		if err := enc.Encode(te); err != nil {
			return fmt.Errorf("workload: encode trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}
