// Package serve is the HTTP face of the engine: the cmd/attached
// daemon is a thin wrapper around Server. Endpoints:
//
//	POST /v1/read    one read op as a frame, or {"addr":42}
//	                 -> one result as a frame, or {"addr":42,"data":"<base64 64B>"}
//	POST /v1/write   one write op as a frame, or {"addr":42,"data":"<base64>"}
//	                 -> one result as a frame, or {"addr":42,"ok":true}
//	POST /v1/batch   ops as a frame, a JSON array or JSON per line
//	                 -> per-op results, in kind
//	GET  /v1/stats   versioned stats, schema v3 (nested engine/robust/
//	                 telemetry/cluster/tenants sections); ?v= pins it
//	GET  /v1/trace/{id}  one traced request's pipeline timeline (Config.Obs)
//	GET  /v1/trace   the most recent retained timelines
//	GET  /v1/snapshot  the engine's full snapv1 state image
//	                 (octet-stream), one at a time (429 while another is
//	                 in flight); restore it with attached -restore
//	GET  /healthz    liveness ("ok", or 503 once draining)
//	GET  /metrics    Prometheus text exposition
//	GET  /debug/pprof/*  runtime profiles (Config.EnablePprof)
//
// The server fronts a cluster.Cluster: one engine behind tenant
// admission. New wraps an engine in a cluster with no quotas
// (bit-identical to serving the engine directly); NewCluster serves one
// built with quotas and classes. Data requests carrying an
// X-Attache-Tenant header run under that tenant: the cluster applies its
// admission quota (over-quota batches answer 429 like any shed) and
// books the ops to its SLO class.
//
// With Config.Obs set, the /v1 data endpoints are traced, and the server
// is the only owner of their traces: a request carrying an
// X-Attache-Trace header is always traced under that ID (the header is
// echoed back), others are sampled at the observer's rate. The server
// creates each trace, the engine records its spans into it through
// the request context, and the server finishes it into the ring that
// /v1/trace/{id} reads. The observer's slog logger receives access logs
// (Debug for 2xx, Info for 4xx, Warn for 5xx).
//
// With Config.Record set, every op batch the data endpoints offer to
// the engine is captured — in submission order, shed or not — through a
// Recorder (canonically workload.TraceWriter, the tracev1 NDJSON
// format), so one recorded session becomes a deterministic replay
// workload: attached -record capture.ndjson, then
// attacheload -replay capture.ndjson.
//
// Failures map to status codes by sentinel: ErrNeverWritten -> 404,
// ErrBadLineSize / ErrOutOfRange -> 400, ErrOverloaded -> 429 (with a
// Retry-After hint), context.DeadlineExceeded -> 504, ErrClosed -> 503.
// Batch requests isolate failures per op and always answer 200 with
// per-op errors inline ("partial failure" semantics).
//
// The three data endpoints read and write their bodies through
// internal/wire, out of a pooled per-request state (reqState). A body
// whose first byte says so is a frame (wire.IsFrame; the Content-Type is
// a label), answered with a frame; any other is JSON, answered in JSON. A
// frame allocates nothing per op in steady state. MaxBodyBytes bounds a
// body's bytes and MaxBatchOps a batch's ops (a frame's count before any
// op is read); anything after the last op but JSON's whitespace is a 400.
// /v1/read and /v1/write take exactly one op of their kind — a frame of
// any other shape is a 400 "bad frame: …" — and a failed op fails the
// call, with its status and a JSON wire.Error in either form.
//
// Every handler submits through the engine's context-aware ops with the
// request's context, so a client disconnect or deadline cancels queued
// work, and a saturated shard queue sheds the request instead of
// stalling the daemon — /healthz stays green under overload.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/wire"
)

// Config holds the daemon-level knobs: where to listen, HTTP timeouts,
// request-size ceilings, and how long a drain may take.
type Config struct {
	// Addr is the listen address, e.g. ":8080" or "127.0.0.1:0".
	Addr string
	// ReadTimeout / WriteTimeout bound one HTTP exchange; zero means the
	// stdlib default (no timeout).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// IdleTimeout bounds keep-alive connections.
	IdleTimeout time.Duration
	// ShutdownTimeout bounds request draining once shutdown starts.
	// 0 defaults to 10s.
	ShutdownTimeout time.Duration
	// MaxBatchOps caps ops per /v1/batch request. 0 defaults to 4096.
	MaxBatchOps int
	// MaxBodyBytes caps a request body. 0 defaults to 8 MiB.
	MaxBodyBytes int64
	// RetryAfter is the backoff hint sent with 429 responses when the
	// engine sheds load. 0 defaults to 1s.
	RetryAfter time.Duration
	// Obs enables the observability layer: request tracing with
	// X-Attache-Trace propagation, the /v1/trace endpoints, and slog
	// access logs. nil disables all of it.
	Obs *obs.Observer
	// Record, when non-nil, captures every op batch the data endpoints
	// offer to the engine — reads, writes, and batches, in submission
	// order, before admission — so real daemon traffic can be replayed
	// later as a regression workload (attacheload -replay). The daemon
	// wires a workload.TraceWriter here (-record); anything with the
	// same method works. Ops that are shed or fail are still recorded:
	// a capture is the offered load, not the accepted load.
	Record Recorder
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default; cmd/attached turns it on unless -pprof=false.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.ShutdownTimeout == 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatchOps == 0 {
		c.MaxBatchOps = 4096
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Recorder receives every op batch offered to the engine by the /v1
// data endpoints, in submission order. Implementations must be safe for
// concurrent use and must copy what they keep: the ops (and their
// payloads) are borrowed from the request. workload.TraceWriter is the
// canonical implementation (the tracev1 NDJSON capture format).
type Recorder interface {
	RecordOps(ops []shard.Op)
}

// Server serves a cluster.Cluster — one engine behind admission — over
// HTTP.
type Server struct {
	cl       *cluster.Cluster
	cfg      Config
	mux      *http.ServeMux
	metrics  *metricsSet
	started  time.Time
	draining atomic.Bool
	// imaging is held by the one /v1/snapshot request whose image is
	// being built or written; it bounds the endpoint to one full copy
	// of the memory at a time.
	imaging atomic.Bool

	readyCh chan struct{}
	addr    atomic.Value // string, set once listening
}

// New wires a server around an engine by wrapping it in a cluster with
// no quotas — request-for-request identical to serving the engine
// directly. Call ListenAndServe to run it, or test against Handler
// directly.
func New(eng *shard.Engine, cfg Config) *Server {
	cl, err := cluster.Wrap([]*shard.Engine{eng}, cluster.Config{})
	if err != nil {
		// Unreachable: a 1-engine wrap cannot fail.
		panic(err)
	}
	return NewCluster(cl, cfg)
}

// NewCluster wires a server around an existing cluster. The server takes
// ownership: ListenAndServe closes the cluster (and its engine) on
// drain.
func NewCluster(cl *cluster.Cluster, cfg Config) *Server {
	s := &Server{
		cl:      cl,
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
		started: time.Now(),
		readyCh: make(chan struct{}),
	}
	s.metrics = newMetricsSet("/v1/read", "/v1/write", "/v1/batch", "/v1/stats", "/v1/trace", "/v1/snapshot", "/healthz", "/metrics")
	// The three data endpoints go through the engine pipeline, so they
	// are the traced ones; the introspection endpoints are not.
	s.mux.HandleFunc("/v1/read", s.instrument("/v1/read", true, post(s.handleLine("read"))))
	s.mux.HandleFunc("/v1/write", s.instrument("/v1/write", true, post(s.handleLine("write"))))
	s.mux.HandleFunc("/v1/batch", s.instrument("/v1/batch", true, post(s.handleBatch)))
	s.mux.HandleFunc("/v1/stats", s.instrument("/v1/stats", false, s.handleStats))
	s.mux.HandleFunc("/v1/trace/", s.instrument("/v1/trace", false, s.handleTrace))
	s.mux.HandleFunc("/v1/trace", s.instrument("/v1/trace", false, s.handleTrace))
	s.mux.HandleFunc("/v1/snapshot", s.instrument("/v1/snapshot", false, s.handleSnapshot))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", false, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", false, s.handleMetrics))
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler exposes the routed endpoints, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready is closed once the listener is bound; Addr is valid after that.
func (s *Server) Ready() <-chan struct{} { return s.readyCh }

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return s.cfg.Addr
}

// ListenAndServe runs the server until ctx is cancelled (the daemon
// cancels on SIGTERM/SIGINT), then drains: stop accepting, finish
// in-flight requests within ShutdownTimeout, and close the engine so
// every queued op completes. Returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.addr.Store(ln.Addr().String())
	close(s.readyCh)

	srv := &http.Server{
		Handler:      s.mux,
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
		IdleTimeout:  s.cfg.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		s.cl.Close()
		return err
	case <-ctx.Done():
	}

	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	err = srv.Shutdown(dctx) // drains in-flight requests
	if cerr := s.cl.Close(); cerr != nil && !errors.Is(cerr, shard.ErrClosed) && err == nil {
		err = cerr
	}
	<-errc // Serve has returned http.ErrServerClosed
	return err
}

// --- plumbing -------------------------------------------------------------

// statusWriter remembers the status code for the metrics layer.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with metrics, and — when an observer is
// configured — tracing (for pipeline endpoints) and slog access logs.
// An X-Attache-Trace request header forces tracing under that ID (an
// unparseable one gets a fresh ID); otherwise the sampler decides, here
// and nowhere else. The assigned ID is echoed in the response header,
// and the finished trace lands in the observer's ring for
// /v1/trace/{id}.
func (s *Server) instrument(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if t := r.Header.Get(obs.TenantHeader); t != "" && traced {
			// Data endpoints run under the request's tenant: the cluster
			// keys admission, SLO class, and per-tenant stats off it.
			r = r.WithContext(obs.ContextWithTenant(r.Context(), t))
		}
		var tr *obs.Trace
		if o := s.cfg.Obs; o != nil && traced {
			if hdr := r.Header.Get(obs.TraceHeader); hdr != "" {
				id, err := obs.ParseTraceID(hdr)
				if err != nil {
					id = 0 // bad ID: still trace, under a fresh one
				}
				tr = o.StartTrace(id)
			} else if o.Sampled() {
				tr = o.StartTrace(0)
			}
			if tr != nil {
				sw.Header().Set(obs.TraceHeader, tr.ID().String())
				r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
			}
		}
		h(sw, r)
		d := time.Since(start)
		s.metrics.observe(endpoint, sw.code, d)
		if o := s.cfg.Obs; o != nil {
			if tr != nil {
				o.Finish(tr)
			}
			s.accessLog(r, endpoint, sw.code, d, tr)
		}
	}
}

// accessLog emits one structured log line per request: Debug for
// successes (high-volume), Info for client errors, Warn for server
// errors — so a production log level of Info surfaces only trouble.
func (s *Server) accessLog(r *http.Request, endpoint string, code int, d time.Duration, tr *obs.Trace) {
	level := slog.LevelDebug
	switch {
	case code >= 500:
		level = slog.LevelWarn
	case code >= 400:
		level = slog.LevelInfo
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", endpoint),
		slog.Int("code", code),
		slog.Duration("dur", d),
		slog.String("remote", r.RemoteAddr),
	}
	if tr != nil {
		attrs = append(attrs, slog.String("trace_id", tr.ID().String()))
	}
	s.cfg.Obs.Logger().LogAttrs(r.Context(), level, "http", attrs...)
}

func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, wire.Error{Error: "use POST"})
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// statusFor maps engine errors to HTTP statuses via the typed sentinels
// of the shared taxonomy.
func statusFor(err error) int {
	for _, row := range shard.OpErrors {
		if errors.Is(err, row.Sentinel) {
			return row.Status
		}
	}
	return http.StatusInternalServerError
}

func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, wire.Error{Error: err.Error()})
}

// reqState is everything a data request needs between reading its body
// and writing its answer. States are pooled: a handler takes one, and
// hands it back when it returns — which is safe because by then nothing
// else holds a reference into it: cluster.DoCtx has waited for every
// enqueued task, core and tier copy a payload on write, a Recorder
// copies what it keeps, and the ResponseWriter has consumed out.
type reqState struct {
	body    []byte
	scan    wire.Scanner
	frame   wire.Frame
	lines   [][wire.LineSize]byte // decoded write payloads, one slot per write
	ops     []shard.Op
	idx     []int // results index of ops[k]
	results []wire.OpResult
	out     []byte
}

var reqStates = sync.Pool{New: func() any { return new(reqState) }}

// release drops what the request left behind — payload and error-string
// references — and returns the state to the pool.
func (st *reqState) release() {
	clear(st.ops)
	clear(st.results)
	st.ops, st.idx, st.results = st.ops[:0], st.idx[:0], st.results[:0]
	reqStates.Put(st)
}

// slot returns the n'th payload slot, growing the slab as needed. A
// grown slab leaves earlier slots where they were (still referenced by
// their ops), so slots stay valid for the whole request.
func (st *reqState) slot(n int) *[wire.LineSize]byte {
	if n == len(st.lines) {
		st.lines = append(st.lines, [wire.LineSize]byte{})
	}
	return &st.lines[n]
}

// readBody reads the request body into st, answering 400 itself when the
// body cannot be read (too large, torn).
// The announced length sizes the buffer only up to MaxBodyBytes, so a
// pooled state never keeps more than one allowed body.
func (s *Server) readBody(st *reqState, w http.ResponseWriter, r *http.Request) bool {
	var err error
	st.body, err = wire.ReadBody(st.body[:0], http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), min(r.ContentLength, s.cfg.MaxBodyBytes))
	if err != nil {
		msg := "read body: " + err.Error()
		if errors.As(err, new(*http.MaxBytesError)) {
			msg = fmt.Sprintf("body exceeds limit of %d bytes", s.cfg.MaxBodyBytes)
		}
		badRequest(w, msg)
		return false
	}
	return true
}

func badRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, wire.Error{Error: msg})
}

// writeBody sends a complete body in one Write.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", wire.ContentType(body))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// --- handlers -------------------------------------------------------------

// handleLine serves /v1/read and /v1/write, whose one op is of the given
// kind: a frame of that op is answered with a one-item answer frame, a
// JSON wire.LineReq with a JSON wire.OpResult. A failed op fails the call.
func (s *Server) handleLine(kind string) http.HandlerFunc {
	write := kind == "write"
	return func(w http.ResponseWriter, r *http.Request) {
		st := reqStates.Get().(*reqState)
		defer st.release()
		if !s.readBody(st, w, r) {
			return
		}
		var (
			req   wire.LineReq
			err   error
			frame = wire.IsFrame(st.body)
		)
		if frame {
			var (
				op wire.Op
				n  int
			)
			if n, err = st.frame.Ops(st.body); err == nil && n == 1 {
				st.frame.Next(&op, st.slot(0))
				err = st.frame.Err()
			}
			if err == nil && (n != 1 || op.Op != kind) {
				err = errors.New("want one " + kind + " op")
			}
			if err != nil {
				badRequest(w, "bad frame: "+err.Error())
				return
			}
			req = wire.LineReq{Addr: op.Addr, Data: op.Data}
		} else if req, err = lineJSON(st.body); err != nil {
			badRequest(w, "bad JSON: "+err.Error())
			return
		} else if req.Addr == nil {
			badRequest(w, "missing addr")
			return
		}
		st.ops = append(st.ops, shard.Op{Write: write, Addr: *req.Addr})
		if write {
			st.ops[0].Data = req.Data
		}
		if s.cfg.Record != nil {
			s.cfg.Record.RecordOps(st.ops)
		}
		res, err := s.cl.DoCtx(r.Context(), st.ops)
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			s.writeErr(w, err)
			return
		}
		st.results = append(st.results, wire.OpResult{Addr: *req.Addr, Data: res[0].Data, OK: write})
		if !frame {
			body, _ := json.Marshal(st.results[0])
			writeBody(w, body)
			return
		}
		st.out = wire.AppendFrameBatch(st.out[:0], wire.Batch{Results: st.results})
		writeBody(w, st.out)
	}
}

// lineJSON decodes a JSON /v1/read or /v1/write body. Returning it by
// value keeps a frame request from allocating the struct encoding/json
// decodes into.
func lineJSON(body []byte) (req wire.LineReq, err error) {
	err = json.Unmarshal(body, &req)
	return req, err
}

// scanBatch turns the body — a frame, a single JSON array of ops or a
// stream of JSON objects (one per line, NDJSON, or whitespace-separated)
// — into st.ops and one st.results entry per op. A frame's count over
// MaxBatchOps is refused before any op is read, JSON at the first op
// beyond it. It answers 400 itself.
func (s *Server) scanBatch(st *reqState, w http.ResponseWriter) bool {
	var op wire.Op
	frame, writes, over := wire.IsFrame(st.body), 0, false
	st.scan.Reset(st.body)
	if frame {
		n, _ := st.frame.Ops(st.body) // a header it refuses yields no op
		over = n > s.cfg.MaxBatchOps
	}
	// Calls, not a method value chosen up front: that would escape.
	for !over && (frame && st.frame.Next(&op, st.slot(writes)) || !frame && st.scan.Next(&op, st.slot(writes))) {
		i := len(st.results)
		if over = i == s.cfg.MaxBatchOps; over {
			break
		}
		st.results = append(st.results, wire.OpResult{})
		if op.Addr == nil {
			st.results[i].Error = "missing addr"
			continue
		}
		st.results[i].Addr = *op.Addr
		switch op.Op {
		case "read":
			st.ops = append(st.ops, shard.Op{Addr: *op.Addr})
		case "write":
			st.ops = append(st.ops, shard.Op{Write: true, Addr: *op.Addr, Data: op.Data})
			writes++
		default:
			st.results[i].Error = fmt.Sprintf("unknown op %q (want read or write)", op.Op)
			continue
		}
		st.idx = append(st.idx, i)
	}
	err, bad := st.scan.Err(), "bad JSON: "
	if frame {
		err, bad = st.frame.Err(), "bad frame: "
	}
	switch {
	case over:
		badRequest(w, fmt.Sprintf("batch exceeds limit of %d ops", s.cfg.MaxBatchOps))
	case errors.Is(err, wire.ErrEmptyBody):
		badRequest(w, err.Error())
	case err != nil:
		badRequest(w, bad+err.Error())
	default:
		return true
	}
	return false
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := reqStates.Get().(*reqState)
	defer st.release()
	if !s.readBody(st, w, r) || !s.scanBatch(st, w) {
		return
	}
	if s.cfg.Record != nil && len(st.ops) > 0 {
		s.cfg.Record.RecordOps(st.ops)
	}
	res, err := s.cl.DoCtx(r.Context(), st.ops)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	for k, rr := range res {
		switch out := &st.results[st.idx[k]]; {
		case rr.Err != nil:
			out.Error = rr.Err.Error()
		case st.ops[k].Write:
			out.OK = true
		default:
			out.Data = rr.Data
		}
	}
	failed := 0
	for _, r := range st.results {
		if r.Error != "" {
			failed++
		}
	}
	b := wire.Batch{Results: st.results, Failed: failed}
	if wire.IsFrame(st.body) {
		st.out = wire.AppendFrameBatch(st.out[:0], b)
		writeBody(w, st.out)
		return
	}
	if b.Results == nil {
		b.Results = []wire.OpResult{} // "results":[], never null
	}
	writeJSON(w, http.StatusOK, b)
}

// handleStats serves the versioned stats document, schema v3; ?v= pins
// the version and any other value answers 400.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("v"); v != "" && v != "3" {
		writeJSON(w, http.StatusBadRequest,
			wire.Error{Error: fmt.Sprintf("unknown stats schema version %q (want 3)", v)})
		return
	}
	writeJSON(w, http.StatusOK, s.statsDoc())
}

// handleTrace serves one traced request's timeline by ID
// (/v1/trace/{id}), or the most recent retained timelines when no ID is
// given (/v1/trace).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil {
		writeJSON(w, http.StatusNotFound, wire.Error{Error: "tracing disabled: run with an observer (-trace-sample)"})
		return
	}
	idStr := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1/trace"), "/")
	if idStr == "" {
		writeJSON(w, http.StatusOK, struct {
			Traces []obs.Timeline `json:"traces"`
		}{s.cfg.Obs.Recent(32)})
		return
	}
	id, err := obs.ParseTraceID(idStr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: err.Error()})
		return
	}
	tl, ok := s.cfg.Obs.Timeline(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, wire.Error{Error: fmt.Sprintf("trace %s not retained (ring holds the most recent traces only)", id)})
		return
	}
	writeJSON(w, http.StatusOK, tl)
}

// errImaging answers a /v1/snapshot request that arrives while another
// one's image is still being built or written.
var errImaging = fmt.Errorf("serve: a snapshot is already in progress: %w", core.ErrOverloaded)

// handleSnapshot serves the engine's snapv1 state image. Taking it
// quiesces every shard for the duration (the image is one cut), so this
// is an admin endpoint, not a data-path one — on a loaded daemon prefer
// -snapshot-on-drain. The image is
// complete, and every lock released, before the first byte is written.
// One image exists at a time: a request that arrives while another is
// being built or written answers 429 with Retry-After and takes no lock.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, wire.Error{Error: "use GET"})
		return
	}
	if !s.imaging.CompareAndSwap(false, true) {
		s.writeErr(w, errImaging)
		return
	}
	defer s.imaging.Store(false)
	image := s.cl.Snapshot()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(image)))
	w.Header().Set("Content-Disposition", `attachment; filename="attache.snap"`)
	w.Write(image)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.renderMetrics(w)
}
