package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"attache/internal/loadgen"
	"attache/internal/shard"
)

// tracev1 is the versioned NDJSON capture format for engine traffic.
// Line 1 is the header; every following line is one event:
//
//	{"format":"attache-trace","version":1}
//	{"at":152340,"ops":[{"a":42},{"w":true,"a":7,"d":"<base64 64B>"}]}
//
// "at" is the event's offset from the start of the capture in
// nanoseconds, "a" the line address, "w" marks writes, and "d" carries
// the write payload (base64, as encoding/json renders []byte). The
// format is append-only by construction: a recorder can crash mid-file
// and every complete line before the tear still replays.
//
// Version bumps change "version" and get their own decoder; decoding
// rejects unknown versions rather than guessing.

// TraceFormat and TraceVersion identify the codec in the header line.
const (
	TraceFormat  = "attache-trace"
	TraceVersion = 1
)

// maxTraceOps bounds one recorded event, mirroring serve's batch cap so
// a malformed line cannot balloon memory during decode.
const maxTraceOps = 4096

type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type traceOp struct {
	Write bool   `json:"w,omitempty"`
	Addr  uint64 `json:"a"`
	Data  []byte `json:"d,omitempty"`
}

type traceEvent struct {
	At  int64     `json:"at"`
	Ops []traceOp `json:"ops"`
}

// DecodeTrace parses a tracev1 stream back into replayable events.
// Every malformed input — wrong header, unknown version, bad JSON,
// negative offsets, empty or oversized events — is a returned error,
// never a panic, and the decoder normalizes what it accepts so that
// decode→encode→decode is the identity (pinned by FuzzTraceV1Decode).
func DecodeTrace(r io.Reader) ([]loadgen.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	var events []loadgen.Event
	headerSeen := false
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !headerSeen {
			var h traceHeader
			if err := strictUnmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad header: %w", line, err)
			}
			if h.Format != TraceFormat {
				return nil, fmt.Errorf("workload: trace line %d: format %q, want %q", line, h.Format, TraceFormat)
			}
			if h.Version != TraceVersion {
				return nil, fmt.Errorf("workload: trace line %d: unsupported version %d (decoder speaks %d)", line, h.Version, TraceVersion)
			}
			headerSeen = true
			continue
		}
		var te traceEvent
		if err := strictUnmarshal(raw, &te); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if te.At < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative offset %d", line, te.At)
		}
		if len(te.Ops) == 0 {
			return nil, fmt.Errorf("workload: trace line %d: event with no ops", line)
		}
		if len(te.Ops) > maxTraceOps {
			return nil, fmt.Errorf("workload: trace line %d: %d ops exceeds limit %d", line, len(te.Ops), maxTraceOps)
		}
		ev := loadgen.Event{At: time.Duration(te.At), Ops: make([]shard.Op, len(te.Ops))}
		for j, op := range te.Ops {
			data := op.Data
			if len(data) == 0 {
				// Normalize empty to nil so re-encoding (omitempty) round-trips.
				data = nil
			}
			if !op.Write && data != nil {
				return nil, fmt.Errorf("workload: trace line %d: read op %d carries data", line, j)
			}
			ev.Ops[j] = shard.Op{Write: op.Write, Addr: op.Addr, Data: data}
		}
		ev.Kind = eventKind(ev.Ops)
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace read: %w", err)
	}
	if !headerSeen {
		return nil, fmt.Errorf("workload: trace: missing header line")
	}
	return events, nil
}

// strictUnmarshal rejects trailing garbage after the JSON value on a
// line (json.Unmarshal alone would, but with a vaguer error) and any
// non-object line.
func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// eventKind recovers the report bucket for a decoded event: captures do
// not store kinds because they are derivable — multi-op events are
// batches, single ops bucket by direction.
func eventKind(ops []shard.Op) loadgen.Kind {
	if len(ops) != 1 {
		return loadgen.Batch
	}
	if ops[0].Write {
		return loadgen.Write
	}
	return loadgen.Read
}

// TraceWriter records live op traffic as a tracev1 stream. It is safe
// for concurrent use — the serve layer records from every request
// goroutine — and assigns each event its wall-clock offset from the
// writer's creation. Ops are deep-copied at record time (payload
// included), so callers may reuse buffers immediately.
type TraceWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	start  time.Time
	events int
	err    error
}

// NewTraceWriter starts a capture onto w, writing the header eagerly so
// even an empty capture is a valid trace.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	tw := &TraceWriter{bw: bw, enc: json.NewEncoder(bw), start: time.Now()}
	tw.err = tw.enc.Encode(traceHeader{Format: TraceFormat, Version: TraceVersion})
	return tw
}

// RecordOps appends one event holding ops at the current offset. Errors
// are sticky and surfaced by Flush — recording is off the request hot
// path's error flow on purpose.
func (tw *TraceWriter) RecordOps(ops []shard.Op) {
	if len(ops) == 0 {
		return
	}
	te := traceEvent{Ops: make([]traceOp, len(ops))}
	for j, op := range ops {
		var data []byte
		if op.Write && len(op.Data) > 0 {
			data = append([]byte(nil), op.Data...)
		}
		te.Ops[j] = traceOp{Write: op.Write, Addr: op.Addr, Data: data}
	}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return
	}
	// Stamped under the lock so capture offsets are monotone — replay
	// pacing depends on non-decreasing arrival times.
	te.At = int64(time.Since(tw.start))
	if err := tw.enc.Encode(te); err != nil {
		tw.err = err
		return
	}
	tw.events++
}

// Events reports how many events have been recorded so far.
func (tw *TraceWriter) Events() int {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.events
}

// Flush drains buffered lines to the underlying writer and returns the
// first error the capture hit, if any.
func (tw *TraceWriter) Flush() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return tw.err
	}
	return tw.bw.Flush()
}
