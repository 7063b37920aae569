package obs

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Stage labels one pipeline stage of a traced request. The four stages
// decompose end-to-end latency: enqueue→dequeue is the wait for a shard,
// execute start→end is service time, respond marks results handed back.
type Stage uint8

const (
	// StageEnqueue is the instant a shard task arrived at its shard.
	StageEnqueue Stage = iota
	// StageDequeue spans the wait for the shard: start is the arrival
	// instant, end is when the submitter acquired the shard's lock
	// (≈zero when the shard was free).
	StageDequeue
	// StageExecute spans the service time: the submitter applying the
	// task's ops against the shard's Memory under its lock.
	StageExecute
	// StageRespond is the instant results were handed back to the
	// submitter, after every touched shard completed.
	StageRespond
)

func (s Stage) String() string {
	switch s {
	case StageEnqueue:
		return "enqueue"
	case StageDequeue:
		return "dequeue"
	case StageExecute:
		return "execute"
	case StageRespond:
		return "respond"
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// TraceID identifies one traced request: 64 bits, rendered as 16 hex
// digits. 0 is never a valid ID (it means "generate one").
type TraceID uint64

func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the hex form (1–16 digits). The zero ID is
// rejected — it is the generate-one sentinel, not an identifier.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("obs: trace ID %q not 1-16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace ID %q: %w", s, err)
	}
	if v == 0 {
		return 0, fmt.Errorf("obs: trace ID 0 is reserved")
	}
	return TraceID(v), nil
}

// Event is one recorded span. Start and End are monotonic offsets from
// the trace's begin instant (time.Since on the begin time, so wall-clock
// adjustments never corrupt a timeline). Instant events have Start==End.
type Event struct {
	Stage Stage
	// Shard is the recording shard, or -1 for request-level events.
	Shard int
	// Ops is how many ops the span covered.
	Ops        int
	Start, End time.Duration
}

// Trace accumulates one request's span events. Record is safe for
// concurrent use (different shards of one request record in parallel).
type Trace struct {
	id    TraceID
	begin time.Time

	mu     sync.Mutex
	events []Event
}

// NewTrace starts a trace with the given ID; the monotonic clock starts
// now. Observer.StartTrace wraps it and fills in a generated ID.
func NewTrace(id TraceID) *Trace {
	return &Trace{id: id, begin: time.Now(), events: make([]Event, 0, 8)}
}

// ID returns the trace's identifier.
func (t *Trace) ID() TraceID { return t.id }

// Now returns the monotonic offset since the trace began — the
// timestamp basis for Record.
func (t *Trace) Now() time.Duration { return time.Since(t.begin) }

// Record appends one span event. Nil-safe, so call sites can skip their
// own nil checks only when they are on a hot path. Safe from any
// goroutine: the instances of a cluster record one split batch's spans
// concurrently.
func (t *Trace) Record(stage Stage, shard, ops int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Stage: stage, Shard: shard, Ops: ops, Start: start, End: end})
	t.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Decompose reduces the recorded spans to the critical-path latency
// split: queue wait and service time are the maximum per-shard dequeue
// and execute spans (the slowest shard gates the response), total is
// the latest event end.
func (t *Trace) Decompose() (queueWait, service, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range t.events {
		d := ev.End - ev.Start
		switch ev.Stage {
		case StageDequeue:
			if d > queueWait {
				queueWait = d
			}
		case StageExecute:
			if d > service {
				service = d
			}
		}
		if ev.End > total {
			total = ev.End
		}
	}
	return queueWait, service, total
}

// TimelineEvent is Event rendered for JSON consumers.
type TimelineEvent struct {
	Stage       string  `json:"stage"`
	Shard       int     `json:"shard"`
	Ops         int     `json:"ops"`
	StartMicros float64 `json:"start_us"`
	EndMicros   float64 `json:"end_us"`
}

// Timeline is the JSON view of one finished trace: the raw events plus
// the queue-wait / service-time decomposition.
type Timeline struct {
	TraceID        string          `json:"trace_id"`
	Events         []TimelineEvent `json:"events"`
	QueueWaitNanos int64           `json:"queue_wait_ns"`
	ServiceNanos   int64           `json:"service_ns"`
	TotalNanos     int64           `json:"total_ns"`
}

// Timeline renders the trace.
func (t *Trace) Timeline() Timeline {
	qw, sv, tot := t.Decompose()
	evs := t.Events()
	tl := Timeline{
		TraceID:        t.id.String(),
		Events:         make([]TimelineEvent, len(evs)),
		QueueWaitNanos: qw.Nanoseconds(),
		ServiceNanos:   sv.Nanoseconds(),
		TotalNanos:     tot.Nanoseconds(),
	}
	for i, ev := range evs {
		tl.Events[i] = TimelineEvent{
			Stage:       ev.Stage.String(),
			Shard:       ev.Shard,
			Ops:         ev.Ops,
			StartMicros: float64(ev.Start) / float64(time.Microsecond),
			EndMicros:   float64(ev.End) / float64(time.Microsecond),
		}
	}
	return tl
}

// ctxKey keys the request-scoped *Trace in a context.
type ctxKey struct{}

// ContextWithTrace returns a child context carrying tr; the shard
// engine records pipeline spans into whatever trace it finds there.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// TraceFromContext returns the context's trace, or nil. Allocation-free.
func TraceFromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
