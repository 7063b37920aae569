package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"attache"
	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/serve"
	"attache/internal/shard"
	"attache/internal/wire"
)

func testLine(fill byte) []byte {
	line := make([]byte, attache.LineSize)
	for i := range line {
		line[i] = fill
	}
	return line
}

// fastOpts are test backoffs so retries resolve in milliseconds.
func fastOpts(extra ...Option) []Option {
	opts := []Option{WithBackoff(time.Millisecond, 4*time.Millisecond), WithJitterSeed(1)}
	return append(opts, extra...)
}

// newDaemon spins a real engine + serve handler behind httptest.
func newDaemon(t testing.TB, cfg shard.Config) (*httptest.Server, *shard.Engine) {
	t.Helper()
	eng, err := shard.New(core.DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(serve.New(eng, serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// TestRoundTripAgainstRealDaemon covers the happy paths end to end:
// write, read, batch with per-op sentinel mapping, stats, health.
func TestRoundTripAgainstRealDaemon(t *testing.T) {
	ts, _ := newDaemon(t, shard.Config{Shards: 2})
	c := New(ts.URL, fastOpts()...)
	ctx := context.Background()

	if err := c.Write(ctx, 42, testLine(7)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := c.Read(ctx, 42)
	if err != nil || !bytes.Equal(got, testLine(7)) {
		t.Fatalf("read back: %v", err)
	}
	if _, err := c.Read(ctx, 999); !errors.Is(err, attache.ErrNeverWritten) {
		t.Fatalf("read missing err = %v, want ErrNeverWritten", err)
	}

	res, err := c.DoCtx(ctx, []attache.Op{
		{Write: true, Addr: 1, Data: testLine(1)},
		{Addr: 1},
		{Addr: 777}, // never written
		{Write: true, Addr: 2, Data: []byte("short")}, // bad size
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if res[0].Err != nil || res[1].Err != nil || !bytes.Equal(res[1].Data, testLine(1)) {
		t.Fatalf("batch ops 0/1: %v %v", res[0].Err, res[1].Err)
	}
	if !errors.Is(res[2].Err, attache.ErrNeverWritten) {
		t.Fatalf("batch op2 err = %v, want ErrNeverWritten", res[2].Err)
	}
	if !errors.Is(res[3].Err, attache.ErrBadLineSize) {
		t.Fatalf("batch op3 err = %v, want ErrBadLineSize", res[3].Err)
	}

	doc, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if doc.Engine.Total.Writes != 2 || doc.Engine.Total.Reads != 2 {
		t.Fatalf("stats totals off: %+v", doc.Engine.Total)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
}

// TestRetriesOverloadedThenSucceeds pins the retry loop: two 429s (with
// Retry-After) and then success, all inside one client call.
func TestRetriesOverloadedThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		w.Write(wire.AppendFrameBatch(nil, wire.Batch{Results: []wire.OpResult{{Addr: 5, OK: true}}}))
	}))
	defer ts.Close()

	c := New(ts.URL, fastOpts()...)
	if err := c.Write(context.Background(), 5, testLine(1)); err != nil {
		t.Fatalf("write should have survived two 429s: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 retries)", calls.Load())
	}
}

// TestRetriesExhausted pins the give-up path and sentinel mapping: a
// server that always sheds yields ErrOverloaded after MaxRetries+1 tries.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL, fastOpts(WithRetry(2))...)
	err := c.Write(context.Background(), 1, testLine(1))
	if !errors.Is(err, attache.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

// TestRetryableStatusReadsWireError: a retryable status's StatusError
// carries the daemon's wire.Error text, as every other status's does,
// and resolves to the sentinel of its row.
func TestRetryableStatusReadsWireError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"shard: engine closed"}`)
	}))
	defer ts.Close()

	err := New(ts.URL, fastOpts(WithRetry(0))...).Write(context.Background(), 1, testLine(1))
	var se *StatusError
	if !errors.As(err, &se) || se.Message != "shard: engine closed" {
		t.Fatalf("err = %v, want a StatusError with message %q", err, "shard: engine closed")
	}
	if !errors.Is(err, attache.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestDeadlineBudget pins that retries respect the budget: against a
// permanently overloaded server, the call returns once the budget is
// spent — well before the retries alone would finish — and the error
// carries both the deadline and the last server failure.
func TestDeadlineBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1") // would force 1s sleeps
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL, fastOpts(WithRetry(10), WithDeadlineBudget(50*time.Millisecond))...)
	start := time.Now()
	err := c.Write(context.Background(), 1, testLine(1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("budgeted call against a dead server must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
	if !errors.Is(err, attache.ErrOverloaded) {
		t.Fatalf("err = %v, want last server error (ErrOverloaded) in chain", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("budgeted call took %v, budget was 50ms", elapsed)
	}
}

// TestCallerDeadlineWins: an explicit context deadline is not overridden
// by the budget and cancels in-flight waits.
func TestCallerDeadlineWins(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hang until the test ends
	}))
	defer ts.Close()
	defer close(release)

	c := New(ts.URL, fastOpts(WithDeadlineBudget(time.Hour))...)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Read(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestShedMapsToOverloaded drives a saturated daemon through the client
// with retries disabled: the 429 surfaces as ErrOverloaded.
func TestShedMapsToOverloaded(t *testing.T) {
	ts, eng := newDaemon(t, shard.Config{
		Shards:     1,
		QueueDepth: 1,
		Faults:     shard.FaultPlan{Seed: 4, DelayP: 1, Delay: 50 * time.Millisecond},
	})
	// Saturate: one op executing (slow), one parked in the 1-deep queue.
	go eng.Do([]attache.Op{{Write: true, Addr: 1, Data: testLine(1)}})
	time.Sleep(10 * time.Millisecond)
	go eng.Do([]attache.Op{{Write: true, Addr: 2, Data: testLine(2)}})
	time.Sleep(10 * time.Millisecond)

	c := New(ts.URL, fastOpts(WithRetry(0))...)
	_, err := c.Read(context.Background(), 1)
	if !errors.Is(err, attache.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"":    0,
		"0":   0,
		"2":   2 * time.Second,
		"-1":  0,
		"abc": 0,
	} {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

// TestOverBurstBatchIsNotRetryable runs a batch larger than its tenant's
// whole burst through the real handler and this client: no amount of
// backing off would ever fit it, so it must not come back as the
// "overloaded, retry" shed. Every op fails as out of range, the tenant's
// shed_quota stays put and no token is spent — with the admission clock
// frozen, the burst-sized batch sent right after is admitted whole.
func TestOverBurstBatchIsNotRetryable(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	cl, err := cluster.New(core.DefaultOptions(), shard.Config{Shards: 2}, cluster.Config{
		Quotas: map[string]cluster.Quota{"hog": {Rate: 10, Burst: 10}},
		Now:    func() time.Time { return frozen },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ts := httptest.NewServer(serve.NewCluster(cl, serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	c := New(ts.URL, fastOpts(WithTenant("hog"))...)
	ctx := context.Background()

	ops := make([]attache.Op, 11)
	for i := range ops {
		ops[i] = attache.Op{Write: true, Addr: uint64(i), Data: testLine(byte(i))}
	}
	res, err := c.DoCtx(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, attache.ErrOutOfRange) || errors.Is(r.Err, attache.ErrOverloaded) {
			t.Fatalf("op %d of an 11-op batch against a burst of 10: %v, want ErrOutOfRange", i, r.Err)
		}
		if msg := r.Err.Error(); !strings.Contains(msg, "11 ops") || !strings.Contains(msg, "burst of 10") {
			t.Fatalf("op %d: %q does not name the batch size and the burst", i, msg)
		}
	}
	hog := func() cluster.TenantSnapshot {
		t.Helper()
		doc, err := c.Stats(ctx)
		if err != nil || len(doc.Tenants) != 1 || doc.Tenants[0].Tenant != "hog" {
			t.Fatalf("stats: %v, tenants %+v", err, doc.Tenants)
		}
		return doc.Tenants[0]
	}
	if b := hog(); b.Ops != 11 || b.Errors != 11 || b.ShedQuota != 0 || b.OK != 0 {
		t.Fatalf("hog book after the refusal = %+v, want 11 ops, all errors, no quota shed", b)
	}

	res, err = c.DoCtx(ctx, ops[:10])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d of the burst-sized batch after the refusal: %v", i, r.Err)
		}
	}
	if b := hog(); b.OK != 10 || b.ShedQuota != 0 {
		t.Fatalf("hog book after the admitted batch = %+v, want 10 ok", b)
	}
}
