// Package obs is the zero-dependency observability substrate for the
// attache engine stack: structured logging (log/slog), request-scoped
// trace IDs, lightweight pipeline spans with ring-buffer retention, and
// the per-shard gauge type.
//
// The design principle is the paper's own: know where the cycles go.
// Attaché's argument (§4–§6) is an accounting of per-access overheads —
// metadata traffic vs. data traffic; this package exposes the same kind
// of breakdown for a running engine, decomposing each traced request
// into queue-wait and service time per pipeline stage (enqueue →
// dequeue → execute → respond).
//
// Cost model, in order of importance:
//
//   - Untraced request: the engine pays one context lookup per DoCtx
//     submission and allocates nothing; the HTTP layer's Sampled() is
//     one atomic add and a modulo.
//   - Traced request (sampled, or explicitly traced via a context
//     Trace): the trace allocates, and span recording takes the trace's
//     mutex. This path is paid only by the traced fraction.
//
// Trace lifecycle: a trace has one owner, whoever received the request
// and created it (NewTrace or Observer.StartTrace). The owner decides
// whether to trace and, with an Observer, calls Finish to seal it into
// the retention ring, where Timeline/Recent serve it to the
// /v1/trace/{id} endpoint. Components in between (the shard engine)
// only Record spans into a Trace they find in the request context.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"attache/internal/stats"
)

// TraceHeader is the HTTP header carrying a request's trace ID, both
// directions: clients send it to request tracing, the daemon echoes the
// assigned ID on every traced response.
const TraceHeader = "X-Attache-Trace"

// Config sizes an Observer.
type Config struct {
	// Logger receives structured events (access logs). nil discards.
	Logger *slog.Logger
	// SampleRate is the traced fraction of requests in [0,1]: 0 never
	// samples (explicit context traces are still recorded), 1 traces
	// everything, 0.01 traces ~1 in 100.
	SampleRate float64
	// RingSize is how many completed traces are retained for lookup.
	// 0 defaults to 1024.
	RingSize int
	// Seed, when non-zero, makes generated trace IDs deterministic —
	// for tests. 0 seeds from the wall clock at construction.
	Seed int64
}

// Observer is the request receiver's observability hub: sampling
// decisions, the completed-trace ring, and the logger. All methods are
// safe for concurrent use. A nil *Observer is a valid "off" value for
// the packages that accept one.
type Observer struct {
	logger *slog.Logger
	every  uint64 // sample 1 in every; 0 = never
	ctr    atomic.Uint64
	idCtr  atomic.Uint64
	idSeed uint64

	mu   sync.Mutex
	ring []*Trace
	byID map[TraceID]*Trace
	next int
}

// New builds an Observer from cfg.
func New(cfg Config) *Observer {
	o := &Observer{logger: cfg.Logger}
	if o.logger == nil {
		o.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	switch {
	case cfg.SampleRate <= 0:
		o.every = 0
	case cfg.SampleRate >= 1:
		o.every = 1
	default:
		o.every = uint64(1/cfg.SampleRate + 0.5)
	}
	size := cfg.RingSize
	if size <= 0 {
		size = 1024
	}
	o.ring = make([]*Trace, size)
	o.byID = make(map[TraceID]*Trace, size)
	o.idSeed = uint64(cfg.Seed)
	if o.idSeed == 0 {
		o.idSeed = uint64(time.Now().UnixNano())
	}
	return o
}

// Logger returns the structured logger (never nil).
func (o *Observer) Logger() *slog.Logger { return o.logger }

// ParseLevel maps a -log-level flag value (debug, info, warn, error —
// case-insensitive) to its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// Sampled reports whether the next request should be traced, advancing
// the sampling counter. Allocation-free; callers only create a Trace
// when it returns true.
func (o *Observer) Sampled() bool {
	if o == nil || o.every == 0 {
		return false
	}
	return o.ctr.Add(1)%o.every == 0
}

// NewID generates a fresh trace ID (splitmix64 over a counter, so IDs
// are unique per observer, deterministic under Config.Seed, and
// successive IDs share no visible prefix).
func (o *Observer) NewID() TraceID {
	id := stats.SplitMix64(o.idSeed + o.idCtr.Add(1))
	if id == 0 { // 0 is the "generate one for me" sentinel
		id = 1
	}
	return TraceID(id)
}

// StartTrace begins a trace. id 0 generates a fresh ID. The caller owns
// the trace and must call Finish to make it visible to Timeline lookups.
func (o *Observer) StartTrace(id TraceID) *Trace {
	if id == 0 {
		id = o.NewID()
	}
	return NewTrace(id)
}

// Finish seals tr into the retention ring, evicting the oldest entry
// once the ring is full. Idempotent per trace pointer.
func (o *Observer) Finish(tr *Trace) {
	if o == nil || tr == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if old := o.ring[o.next]; old != nil {
		delete(o.byID, old.id)
	}
	o.ring[o.next] = tr
	o.byID[tr.id] = tr
	o.next = (o.next + 1) % len(o.ring)
}

// Timeline looks up a finished trace by ID and renders its timeline.
func (o *Observer) Timeline(id TraceID) (Timeline, bool) {
	o.mu.Lock()
	tr := o.byID[id]
	o.mu.Unlock()
	if tr == nil {
		return Timeline{}, false
	}
	return tr.Timeline(), true
}

// Recent returns up to limit finished traces, newest first.
func (o *Observer) Recent(limit int) []Timeline {
	o.mu.Lock()
	defer o.mu.Unlock()
	if limit <= 0 || limit > len(o.ring) {
		limit = len(o.ring)
	}
	out := make([]Timeline, 0, limit)
	for k := 0; k < len(o.ring) && len(out) < limit; k++ {
		i := ((o.next-1-k)%len(o.ring) + len(o.ring)) % len(o.ring)
		if o.ring[i] == nil {
			continue
		}
		out = append(out, o.ring[i].Timeline())
	}
	return out
}
