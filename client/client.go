// Package client is the Go client for the attached daemon: line
// reads/writes and batches over HTTP with automatic retry, exponential
// backoff with full jitter, and a deadline budget.
//
// Retry policy: transport errors and 429/502/503/504 responses are
// retried up to MaxRetries times. A 429's Retry-After hint becomes the
// floor of the next backoff sleep. Every sleep is checked against the
// context deadline first — the client gives up early (returning the last
// error) rather than sleeping past the budget. Batch responses are 200
// with per-op outcomes; per-op failures inside a batch are returned to
// the caller unretried, since the neighbouring ops already landed.
//
// Read, Write and Do speak internal/wire's binary frame, no JSON or
// base64: Read and Write send a one-op frame to /v1/read and /v1/write,
// Do any number of ops to /v1/batch.
//
// Errors carry the daemon's taxonomy: errors.Is works against
// attache.ErrOverloaded, attache.ErrNeverWritten, attache.ErrClosed,
// attache.ErrBadLineSize, attache.ErrOutOfRange, and the context
// sentinels, for one op inside a batch and for a whole response
// (StatusError) whose status names one sentinel: 404, 429, 499, 503 or
// 504. ErrBadLineSize and ErrOutOfRange both answer 400, and 500 is also
// what an error outside the taxonomy answers, so a StatusError with
// either code unwraps to nothing and its Message carries the daemon's
// text. A failed Read or Write is a whole response: a bad line size or an
// out-of-range address there is such a 400.
//
// Tracing: a context built with ContextWithTrace (or ContextWithTraceID)
// sends its ID in the X-Attache-Trace header on every request made with
// it, so a daemon running with tracing enabled records the request's
// pipeline timeline, retrievable from /v1/trace/{id} (or Client.Trace):
//
//	ctx, id := client.ContextWithTrace(context.Background())
//	data, err := c.Read(ctx, 42)
//	tl, err := c.Trace(context.Background(), id)  // queue wait vs service time
package client

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"attache"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/wire"
)

// Client talks to one attached daemon. It is safe for concurrent use.
type Client struct {
	base        string
	hc          *http.Client
	maxRetries  int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	budget      time.Duration
	tenant      string

	mu  sync.Mutex
	rng *rand.Rand
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying *http.Client (timeouts, transport).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry caps retry attempts after the first try (default 4).
func WithRetry(n int) Option {
	return func(c *Client) { c.maxRetries = n }
}

// WithTenant stamps every request with the X-Attache-Tenant header, so a
// clustered daemon books the client's ops to that tenant's admission
// quota and SLO class. A per-call ContextWithTenant overrides it.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// WithBackoff sets the exponential-backoff window: sleeps are drawn
// uniformly from (0, min(max, base<<attempt)] — "full jitter". Defaults
// are 50ms base, 2s max.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.baseBackoff, c.maxBackoff = base, max }
}

// WithDeadlineBudget bounds each call that arrives without its own
// context deadline: the call (including all retries and sleeps) gets at
// most d. 0 (the default) means no implicit bound.
func WithDeadlineBudget(d time.Duration) Option {
	return func(c *Client) { c.budget = d }
}

// WithJitterSeed makes the backoff jitter deterministic — for tests.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// New builds a client for the daemon at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          &http.Client{},
		maxRetries:  4,
		baseBackoff: 50 * time.Millisecond,
		maxBackoff:  2 * time.Second,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// StatusError is a non-retryable (or retry-exhausted) HTTP failure.
// errors.Is resolves it to the matching attache sentinel via Unwrap.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Code, e.Message)
}

// Unwrap resolves the status to the taxonomy sentinel the daemon answers
// it for, when the status names exactly one: 400 is shared by two rows,
// and 500 is also what an error outside the taxonomy gets, so neither
// identifies anything.
func (e *StatusError) Unwrap() error {
	if e.Code == http.StatusInternalServerError {
		return nil
	}
	var sentinel error
	for _, row := range shard.OpErrors {
		if row.Status != e.Code {
			continue
		}
		if sentinel != nil {
			return nil
		}
		sentinel = row.Sentinel
	}
	return sentinel
}

func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff draws the attempt'th full-jitter sleep, floored at the
// server's Retry-After hint.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	window := c.baseBackoff << attempt
	if window > c.maxBackoff || window <= 0 {
		window = c.maxBackoff
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(window))) + 1
	c.mu.Unlock()
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// traceKey keys the outgoing trace ID in a context.
type traceKey struct{}

// idCtr seeds fresh client-side trace IDs (mixed with the wall clock at
// init so concurrent processes do not collide).
var idCtr atomic.Uint64

func init() { idCtr.Store(uint64(time.Now().UnixNano())) }

// ContextWithTrace returns a child context carrying a fresh trace ID,
// and the ID itself. Every request made with the context sends the ID
// in the X-Attache-Trace header; a daemon with tracing enabled records
// that request's pipeline timeline under it.
func ContextWithTrace(ctx context.Context) (context.Context, string) {
	id := attache.TraceID(idCtr.Add(0x9E3779B97F4A7C15) | 1).String()
	return ContextWithTraceID(ctx, id), id
}

// ContextWithTraceID is ContextWithTrace with a caller-chosen ID (the
// hex form, up to 16 digits), e.g. one assigned by an upstream system.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// ContextWithTenant returns a child context whose requests carry tenant
// in the X-Attache-Tenant header, overriding any client-level WithTenant
// for calls made with it.
func ContextWithTenant(ctx context.Context, tenant string) context.Context {
	return obs.ContextWithTenant(ctx, tenant)
}

// respBufs recycles response-body buffers of the data calls. A buffer
// goes back once its response is parsed: results are decoded out of it
// (lines into the caller's slab, error text into fresh strings), so
// nothing the caller keeps points into it. Request bodies are not
// recycled: the transport may still be reading one after Do returns.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// send is roundTrip for the data calls: it posts ops to path as a
// request frame, reads the answer into a pooled buffer and, when the
// status is 200, parses it as an answer frame.
func (c *Client) send(ctx context.Context, path string, ops []attache.Op) ([]attache.Result, error) {
	buf := respBufs.Get().(*[]byte)
	defer respBufs.Put(buf)
	code, resp, err := c.roundTrip(ctx, http.MethodPost, path, wire.AppendFrameOps(nil, ops), (*buf)[:0])
	if err != nil {
		return nil, err
	}
	*buf = resp
	if code != http.StatusOK {
		return nil, statusToErr(code, resp)
	}
	return parseBatchResponse(resp, ops)
}

// roundTrip POSTs (or GETs, for empty body) path with retries and
// returns the final response status and body, read into buf.
func (c *Client) roundTrip(ctx context.Context, method, path string, body, buf []byte) (int, []byte, error) {
	if c.budget > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.budget)
			defer cancel()
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, fmt.Errorf("client: %w", err)
		}
		req.Header.Set("Content-Type", wire.ContentType(body))
		if id, ok := ctx.Value(traceKey{}).(string); ok && id != "" {
			req.Header.Set(obs.TraceHeader, id)
		}
		if t := obs.TenantFromContext(ctx); t != "" {
			req.Header.Set(obs.TenantHeader, t)
		} else if c.tenant != "" {
			req.Header.Set(obs.TenantHeader, c.tenant)
		}

		var retryAfter time.Duration
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, budgetErr(ctx.Err(), attempt, lastErr)
			}
			lastErr = err
		} else {
			respBody, rerr := wire.ReadBody(buf[:0], resp.Body, resp.ContentLength)
			resp.Body.Close()
			buf = respBody
			if rerr != nil {
				lastErr = rerr
			} else if !retryable(resp.StatusCode) {
				return resp.StatusCode, respBody, nil
			} else {
				retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
				lastErr = statusToErr(resp.StatusCode, respBody)
			}
		}

		if attempt >= c.maxRetries {
			return 0, nil, fmt.Errorf("client: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		sleep := c.backoff(attempt, retryAfter)
		if deadline, ok := ctx.Deadline(); ok && time.Now().Add(sleep).After(deadline) {
			return 0, nil, budgetErr(context.DeadlineExceeded, attempt, lastErr)
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return 0, nil, budgetErr(ctx.Err(), attempt, lastErr)
		}
	}
}

// budgetErr reports an exhausted deadline budget, keeping both the
// context sentinel and the last server error visible to errors.Is.
func budgetErr(ctxErr error, attempts int, lastErr error) error {
	if lastErr == nil {
		return ctxErr
	}
	return fmt.Errorf("client: deadline budget exhausted after %d attempts (%w): last error: %w", attempts+1, ctxErr, lastErr)
}

// statusToErr turns a terminal non-2xx response into an error.
func statusToErr(code int, body []byte) error {
	var er wire.Error
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	return &StatusError{Code: code, Message: msg}
}

// Read fetches the 64-byte line at addr.
func (c *Client) Read(ctx context.Context, addr uint64) ([]byte, error) {
	res, err := c.one(ctx, "/v1/read", attache.Op{Addr: addr})
	return res.Data, err
}

// Write stores the 64-byte line data at addr.
func (c *Client) Write(ctx context.Context, addr uint64, data []byte) error {
	_, err := c.one(ctx, "/v1/write", attache.Op{Write: true, Addr: addr, Data: data})
	return err
}

// one sends op alone to /v1/read or /v1/write and returns its result,
// with the op's error as the call's.
func (c *Client) one(ctx context.Context, path string, op attache.Op) (attache.Result, error) {
	res, err := c.send(ctx, path, []attache.Op{op})
	if err != nil {
		return attache.Result{}, err
	}
	return res[0], res[0].Err
}

// parseBatchResponse turns an answer frame into one Result per op. Every
// line read lands in one slab allocated here, 64 bytes per read op, each
// Data exactly its own slot: the slab is per call and never recycled,
// and keeping one result alive keeps its batch's slab.
func parseBatchResponse(resp []byte, ops []attache.Op) ([]attache.Result, error) {
	var f wire.Frame
	n, _, err := f.Results(resp)
	if err == nil && n != len(ops) {
		err = fmt.Errorf("%d results for %d ops", n, len(ops))
	}
	reads := 0
	for i := range ops {
		if !ops[i].Write {
			reads++
		}
	}
	slab := make([][wire.LineSize]byte, reads)
	out := make([]attache.Result, len(ops))
	var r wire.OpResult
	for i := range ops {
		// Result i answers ops[i]: a read's line goes to the next slot.
		var slot *[wire.LineSize]byte
		if !ops[i].Write {
			slot, slab = &slab[0], slab[1:]
		}
		if f.NextResult(&r, slot); r.Error != "" {
			out[i].Err = opErr(r.Error)
		} else {
			out[i].Data = r.Data
		}
	}
	if err = cmp.Or(err, f.Err()); err != nil {
		return nil, fmt.Errorf("client: bad batch response: %w", err)
	}
	return out, nil
}

// Do submits a batch of ops with the daemon's per-op failure isolation:
// the returned slice matches ops in order, and each Result carries its
// own error (resolved to attache sentinels where possible).
func (c *Client) Do(ctx context.Context, ops []attache.Op) ([]attache.Result, error) {
	return c.send(ctx, "/v1/batch", ops)
}

// DoCtx is Do under the method name the sharded Engine exposes, so a
// *Client satisfies the same batch-submission shape as an in-process
// engine (loadgen.Target): harnesses and replay tooling drive either
// interchangeably.
func (c *Client) DoCtx(ctx context.Context, ops []attache.Op) ([]attache.Result, error) {
	return c.Do(ctx, ops)
}

// opErr maps a per-op error message from the daemon back onto the typed
// sentinels, so batch callers can errors.Is without parsing strings: the
// daemon sends err.Error(), which embeds the message of the sentinel the
// error wraps.
func opErr(msg string) error {
	for _, row := range shard.OpErrors {
		if strings.Contains(msg, row.Sentinel.Error()) {
			return fmt.Errorf("%s: %w", msg, row.Sentinel)
		}
	}
	return errors.New(msg)
}

// Stats is the schema-version-3 stats document served at /v1/stats —
// the very type the daemon encodes: nested sections with the engine's
// totals and per-shard counters (and the Engine.Tiers view on a tiered
// daemon), per-SLO-class latency quantiles, a Jain fairness index, and
// per-tenant accounting.
type Stats = wire.Stats

// Stats fetches the current (schema v3) stats document.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var doc Stats
	code, respBody, err := c.roundTrip(ctx, http.MethodGet, "/v1/stats?v=3", nil, nil)
	if err != nil {
		return doc, err
	}
	if code != http.StatusOK {
		return doc, statusToErr(code, respBody)
	}
	if err := json.Unmarshal(respBody, &doc); err != nil {
		return doc, fmt.Errorf("client: bad stats response: %w", err)
	}
	return doc, nil
}

// Trace fetches the pipeline timeline of a traced request by ID (as
// returned by ContextWithTrace). The daemon retains a bounded ring of
// recent traces, so look timelines up promptly.
func (c *Client) Trace(ctx context.Context, id string) (attache.Timeline, error) {
	var tl attache.Timeline
	code, respBody, err := c.roundTrip(ctx, http.MethodGet, "/v1/trace/"+id, nil, nil)
	if err != nil {
		return tl, err
	}
	if code != http.StatusOK {
		return tl, statusToErr(code, respBody)
	}
	if err := json.Unmarshal(respBody, &tl); err != nil {
		return tl, fmt.Errorf("client: bad trace response: %w", err)
	}
	return tl, nil
}

// Health probes /healthz; nil means the daemon is live and not draining.
func (c *Client) Health(ctx context.Context) error {
	code, respBody, err := c.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return statusToErr(code, respBody)
	}
	return nil
}
