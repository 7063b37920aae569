package shard

import (
	"errors"
	"testing"

	"attache/internal/core"
)

// TestFaultInjectionDeterministic pins reproducibility: two engines with
// the same fault plan fed the same sequential op stream fail and delay
// the same ops.
func TestFaultInjectionDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 9, ErrP: 0.2, PartialP: 0.1}
	run := func() []bool {
		e, err := New(core.DefaultOptions(), Config{Shards: 2, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var outcomes []bool
		for i := uint64(0); i < 200; i++ {
			err := e.Write(i, testLine(i))
			if err != nil && !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("op %d: %v", i, err)
			}
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault injection not reproducible: op %d diverges across identical runs", i)
		}
	}
}

// TestFaultPartialBatch checks the partial-batch failure mode: a task is
// cut at one point — a prefix executes, the suffix fails with
// ErrFaultInjected, and nothing interleaves.
func TestFaultPartialBatch(t *testing.T) {
	e, err := New(core.DefaultOptions(), Config{
		Shards: 1,
		Faults: FaultPlan{Seed: 5, PartialP: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = Op{Write: true, Addr: uint64(i), Data: testLine(uint64(i))}
	}
	res, err := e.Do(ops)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(res)
	for i, r := range res {
		if r.Err != nil {
			cut = i
			break
		}
	}
	if cut == len(res) {
		t.Fatal("PartialP=1 task was never cut")
	}
	for i, r := range res {
		if i < cut && r.Err != nil {
			t.Fatalf("op %d before cut %d failed: %v", i, cut, r.Err)
		}
		if i >= cut && !errors.Is(r.Err, ErrFaultInjected) {
			t.Fatalf("op %d after cut %d err = %v, want ErrFaultInjected", i, cut, r.Err)
		}
	}
	if got := e.StatsSnapshot().Robust.InjectedErrors; got != uint64(len(res)-cut) {
		t.Fatalf("InjectedErrors = %d, want %d", got, len(res)-cut)
	}
}
