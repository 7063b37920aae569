package loadgen

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/shard"
)

func newEngine(t *testing.T, cfg shard.Config) *shard.Engine {
	t.Helper()
	eng, err := shard.New(core.DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestPlanDeterministic: same seed, same plan — byte for byte.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Events: 500}
	a, b := Plan(cfg), Plan(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from the same config differ")
	}
	if Checksum(a) != Checksum(b) {
		t.Fatal("checksums differ for identical plans")
	}
	cfg.Seed = 43
	if Checksum(Plan(cfg)) == Checksum(a) {
		t.Fatal("different seeds produced the same checksum")
	}
}

// TestChecksumIndependentOfConcurrency is the acceptance criterion: the
// op sequence (fingerprinted by its checksum) is identical whether the
// run executes with 1 worker or 16.
func TestChecksumIndependentOfConcurrency(t *testing.T) {
	base := Config{Seed: 42, Events: 300, AddrSpace: 1 << 10}
	var sums []string
	for _, conc := range []int{1, 16} {
		cfg := base
		cfg.Concurrency = conc
		eng := newEngine(t, shard.Config{Shards: 2})
		rep, err := Run(context.Background(), eng, cfg)
		if err != nil {
			t.Fatalf("run conc=%d: %v", conc, err)
		}
		if rep.Ops == 0 || rep.OpsOK == 0 {
			t.Fatalf("run conc=%d did no work: %+v", conc, rep)
		}
		sums = append(sums, rep.Checksum)
	}
	if sums[0] != sums[1] {
		t.Fatalf("checksum differs across concurrency: %s vs %s", sums[0], sums[1])
	}
}

// TestRunReportShape: a clean run over a prefilled space completes every
// op, reports sane quantiles, and an empty taxonomy apart from
// never_written misses on un-prefilled addresses.
func TestRunReportShape(t *testing.T) {
	cfg := Config{Seed: 7, Events: 400, Concurrency: 4, AddrSpace: 256, Prefill: 256}
	eng := newEngine(t, shard.Config{Shards: 2})
	rep, err := Run(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 400 {
		t.Fatalf("events = %d, want 400", rep.Events)
	}
	// Full prefill of the address space: every read hits, every op lands.
	if rep.OpsOK != rep.Ops {
		t.Fatalf("ops_ok %d != ops %d (errors: %v)", rep.OpsOK, rep.Ops, rep.Errors)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %v", rep.Throughput)
	}
	var sampleTotal uint64
	for kind, q := range rep.Latency {
		if q.Count == 0 || q.Max < q.P50 {
			t.Fatalf("degenerate quantiles for %s: %+v", kind, q)
		}
		sampleTotal += q.Count
	}
	if sampleTotal != uint64(rep.Events) {
		t.Fatalf("latency samples %d != events %d", sampleTotal, rep.Events)
	}
}

// TestRunTaxonomyUnderFaults: with fault injection on, the report's
// error taxonomy picks up fault_injected (and nothing lands in "other").
func TestRunTaxonomyUnderFaults(t *testing.T) {
	cfg := Config{Seed: 11, Events: 300, Concurrency: 4, AddrSpace: 128, Prefill: 128}
	eng := newEngine(t, shard.Config{
		Shards: 2,
		Faults: shard.FaultPlan{Seed: 11, ErrP: 0.2},
	})
	rep, err := Run(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors["fault_injected"] == 0 {
		t.Fatalf("expected injected faults in taxonomy, got %v", rep.Errors)
	}
	if rep.Errors["other"] != 0 {
		t.Fatalf("unclassified errors leaked into 'other': %v", rep.Errors)
	}
	if rep.OpsOK+sum(rep.Errors) != rep.Ops {
		t.Fatalf("taxonomy does not conserve: ok %d + errs %d != ops %d",
			rep.OpsOK, sum(rep.Errors), rep.Ops)
	}
}

// TestRunShedRate: a tiny queue plus slow ops plus many workers must
// shed, and the shed rate must reconcile with the taxonomy.
func TestRunShedRate(t *testing.T) {
	cfg := Config{
		Seed: 3, Events: 200, Concurrency: 8, AddrSpace: 64,
		Prefill: -1, WriteWeight: 1, ReadWeight: 0, BatchWeight: 0,
	}
	eng := newEngine(t, shard.Config{
		Shards:     1,
		QueueDepth: 1,
		Faults:     shard.FaultPlan{Seed: 3, DelayP: 1, Delay: 2 * time.Millisecond},
	})
	rep, err := Run(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors["overloaded"] == 0 {
		t.Fatalf("expected sheds, taxonomy: %v", rep.Errors)
	}
	want := float64(rep.Errors["overloaded"]) / float64(rep.Ops)
	if rep.ShedRate != want {
		t.Fatalf("shed rate %v, want %v", rep.ShedRate, want)
	}
}

// TestRunHonorsContext: cancelling the run context stops the workers
// promptly instead of draining all events.
func TestRunHonorsContext(t *testing.T) {
	cfg := Config{Seed: 5, Events: 100000, Concurrency: 2, Prefill: -1}
	eng := newEngine(t, shard.Config{
		Shards: 1,
		Faults: shard.FaultPlan{Seed: 5, DelayP: 1, Delay: time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 100000 {
		t.Fatalf("plan size changed: %d", rep.Events)
	}
	if rep.Ops >= 100000 {
		t.Fatal("cancelled run still executed every event")
	}
}

// failFrom is a target that answers the first n ops of every call and
// fails the rest as shed.
type failFrom int

func (n failFrom) DoCtx(_ context.Context, ops []shard.Op) ([]shard.Result, error) {
	res := make([]shard.Result, len(ops))
	for i := int(n); i < len(res); i++ {
		res[i].Err = fmt.Errorf("op %d: %w", i, core.ErrOverloaded)
	}
	return res, nil
}

// TestPrefillGivesUpWithTheFailingOpsError pins what prefill reports when
// a target keeps refusing: the first op that failed on the last attempt,
// wrapped — also when that is not the attempt's first op (it once read
// res[0].Err, nil on a target that answers its first op and fails its
// second, and returned "%!w(<nil>)").
func TestPrefillGivesUpWithTheFailingOpsError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target failFrom
		fails  bool
	}{
		{"answers everything", 1 << 20, false},
		{"fails every op", 0, true},
		{"fails only from its second op on", 1, true},
	} {
		// 128 lines: more than the 100 attempts shrink a retry list by.
		err := prefill(context.Background(), tc.target, Config{Prefill: 128})
		if !tc.fails {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, core.ErrOverloaded) || strings.Contains(fmt.Sprint(err), "%!w") {
			t.Errorf("%s: prefill error %q does not wrap the op's error", tc.name, err)
		}
	}
}

// TestClassify pins the taxonomy labels, including wrapped chains and
// string-flattened errors (as the HTTP client produces).
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{core.ErrOverloaded, "overloaded"},
		{fmt.Errorf("shard 3 queue full: %w", core.ErrOverloaded), "overloaded"},
		{errors.New("attache: overloaded (flattened)"), "overloaded"},
		{context.DeadlineExceeded, "deadline"},
		{context.Canceled, "canceled"},
		{shard.ErrFaultInjected, "fault_injected"},
		{shard.ErrClosed, "closed"},
		{core.ErrNeverWritten, "never_written"},
		{core.ErrBadLineSize, "bad_line_size"},
		{core.ErrOutOfRange, "out_of_range"},
		{errors.New("mystery"), "other"},
	} {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestQuantilesNearestRank pins the report quantiles on small samples;
// internal/cluster's TestClassQuantilesMatchLoadgen holds the identical
// table for the daemon's per-class view.
func TestQuantilesNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n             int // samples are 1µs .. nµs, offered in descending order
		p50, p90, p99 float64
	}{
		{1, 1, 1, 1},
		{3, 2, 2, 2},
		{10, 5, 9, 9},
	} {
		var s []time.Duration
		for us := tc.n; us >= 1; us-- {
			s = append(s, time.Duration(us)*time.Microsecond)
		}
		got := quantiles(s)
		if got.P50Micros != tc.p50 || got.P90Micros != tc.p90 || got.P99Micros != tc.p99 || got.MaxMicros != float64(tc.n) {
			t.Errorf("n=%d: p50/p90/p99/max = %v/%v/%v/%v, want %v/%v/%v/%d",
				tc.n, got.P50Micros, got.P90Micros, got.P99Micros, got.MaxMicros, tc.p50, tc.p90, tc.p99, tc.n)
		}
	}
}

func sum(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

// TestRunQueueWaitReport: with TraceQueueWait on, against a plain engine,
// the report carries per-kind queue-wait quantiles, one sample per event,
// each no larger than the event's own latency — and the engine recorded
// into the planted traces, so the waits are not all zero.
func TestRunQueueWaitReport(t *testing.T) {
	cfg := Config{Seed: 5, Events: 200, Concurrency: 4, AddrSpace: 128, Prefill: 128, TraceQueueWait: true}
	eng := newEngine(t, shard.Config{Shards: 2})
	rep, err := Run(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.QueueWait) == 0 {
		t.Fatalf("TraceQueueWait set but report has no queue-wait buckets: %+v", rep)
	}
	var samples uint64
	var longest time.Duration
	for kind, q := range rep.QueueWait {
		samples += q.Count
		longest = max(longest, q.Max)
		lat, ok := rep.Latency[kind]
		if !ok {
			t.Fatalf("queue-wait bucket %q has no latency bucket", kind)
		}
		if q.Count != lat.Count {
			t.Fatalf("%s: %d queue-wait samples vs %d latency samples", kind, q.Count, lat.Count)
		}
		if q.Max > lat.Max {
			t.Fatalf("%s: max queue wait %v exceeds max latency %v", kind, q.Max, lat.Max)
		}
	}
	if samples != uint64(rep.Events) {
		t.Fatalf("queue-wait samples %d != events %d", samples, rep.Events)
	}
	if longest <= 0 {
		t.Fatal("every queue-wait sample is 0: the engine recorded no dequeue span into the planted traces")
	}

	// Without the flag the section is absent entirely.
	cfg.TraceQueueWait = false
	rep, err = Run(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueueWait != nil {
		t.Fatalf("queue-wait section present without the flag: %+v", rep.QueueWait)
	}
}
