package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []TraceID{1, 0xdeadbeef, ^TraceID(0)} {
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("TraceID %d rendered %q, want 16 hex digits", id, s)
		}
		back, err := ParseTraceID(s)
		if err != nil {
			t.Fatalf("ParseTraceID(%q): %v", s, err)
		}
		if back != id {
			t.Fatalf("round trip %d -> %q -> %d", id, s, back)
		}
	}
	for _, bad := range []string{"", "0", "zz", strings.Repeat("f", 17), "0000000000000000"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted, want error", bad)
		}
	}
}

func TestSamplingRate(t *testing.T) {
	o := New(Config{SampleRate: 0.25, Seed: 1})
	hits := 0
	for i := 0; i < 1000; i++ {
		if o.Sampled() {
			hits++
		}
	}
	if hits != 250 {
		t.Fatalf("rate 0.25 sampled %d of 1000, want exactly 250 (counter-based)", hits)
	}

	off := New(Config{SampleRate: 0, Seed: 1})
	for i := 0; i < 100; i++ {
		if off.Sampled() {
			t.Fatal("rate 0 sampled a request")
		}
	}
	all := New(Config{SampleRate: 1, Seed: 1})
	for i := 0; i < 100; i++ {
		if !all.Sampled() {
			t.Fatal("rate 1 skipped a request")
		}
	}
}

func TestSampledOffIsAllocationFree(t *testing.T) {
	o := New(Config{SampleRate: 0, Seed: 1})
	if n := testing.AllocsPerRun(100, func() { o.Sampled() }); n != 0 {
		t.Fatalf("Sampled() with rate 0 allocated %.1f/op, want 0", n)
	}
	on := New(Config{SampleRate: 0.5, Seed: 1})
	if n := testing.AllocsPerRun(100, func() { on.Sampled() }); n != 0 {
		t.Fatalf("Sampled() with rate 0.5 allocated %.1f/op, want 0", n)
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { TraceFromContext(ctx) }); n != 0 {
		t.Fatalf("TraceFromContext on a bare context allocated %.1f/op, want 0", n)
	}
}

func TestNewIDDeterministicAndUnique(t *testing.T) {
	a, b := New(Config{Seed: 7}), New(Config{Seed: 7})
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		ida, idb := a.NewID(), b.NewID()
		if ida != idb {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, ida, idb)
		}
		if ida == 0 {
			t.Fatal("generated the reserved zero ID")
		}
		if seen[ida] {
			t.Fatalf("duplicate ID %s at %d", ida, i)
		}
		seen[ida] = true
	}
}

func TestRingRetentionAndEviction(t *testing.T) {
	o := New(Config{RingSize: 4, Seed: 1})
	ids := make([]TraceID, 6)
	for i := range ids {
		tr := o.StartTrace(0)
		tr.Record(StageRespond, -1, 1, 0, 0)
		o.Finish(tr)
		ids[i] = tr.ID()
	}
	for _, id := range ids[:2] {
		if _, ok := o.Timeline(id); ok {
			t.Errorf("evicted trace %s still resolvable", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := o.Timeline(id); !ok {
			t.Errorf("retained trace %s not resolvable", id)
		}
	}
	recent := o.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d traces, want 4", len(recent))
	}
	if recent[0].TraceID != ids[5].String() {
		t.Fatalf("Recent[0] = %s, want newest %s", recent[0].TraceID, ids[5])
	}
}

func TestDecomposeAndTimeline(t *testing.T) {
	tr := NewTrace(42)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.Record(StageEnqueue, 0, 2, ms(1), ms(1))
	tr.Record(StageDequeue, 0, 2, ms(1), ms(4)) // 3ms wait
	tr.Record(StageExecute, 0, 2, ms(4), ms(9)) // 5ms service
	tr.Record(StageEnqueue, 1, 1, ms(1), ms(1))
	tr.Record(StageDequeue, 1, 1, ms(1), ms(2)) // 1ms wait
	tr.Record(StageExecute, 1, 1, ms(2), ms(3)) // 1ms service
	tr.Record(StageRespond, -1, 3, ms(10), ms(10))

	qw, sv, tot := tr.Decompose()
	if qw != ms(3) || sv != ms(5) || tot != ms(10) {
		t.Fatalf("Decompose = wait %v, service %v, total %v; want 3ms, 5ms, 10ms", qw, sv, tot)
	}
	tl := tr.Timeline()
	if tl.TraceID != TraceID(42).String() || len(tl.Events) != 7 {
		t.Fatalf("Timeline = id %s, %d events; want %s, 7", tl.TraceID, len(tl.Events), TraceID(42))
	}
	if tl.QueueWaitNanos != ms(3).Nanoseconds() || tl.ServiceNanos != ms(5).Nanoseconds() {
		t.Fatalf("Timeline decomposition = %d/%d ns", tl.QueueWaitNanos, tl.ServiceNanos)
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := NewTrace(1)
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				now := tr.Now()
				tr.Record(StageExecute, s, 1, now, now)
			}
		}(s)
	}
	wg.Wait()
	if got := len(tr.Events()); got != 800 {
		t.Fatalf("concurrent Record kept %d events, want 800", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace(9)
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFromContext(ctx); got != tr {
		t.Fatalf("TraceFromContext = %p, want %p", got, tr)
	}
	if got := TraceFromContext(context.Background()); got != nil {
		t.Fatalf("TraceFromContext on bare context = %p, want nil", got)
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Sampled() {
		t.Fatal("nil observer sampled")
	}
	o.Finish(NewTrace(1))
	var tr *Trace
	tr.Record(StageEnqueue, 0, 1, 0, 0) // must not panic
}
