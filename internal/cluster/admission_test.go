package cluster

import (
	"errors"
	"testing"
	"time"

	"attache/internal/core"
)

// fakeClock is a hand-advanced admission clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestAdmitterBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	a := newAdmitter(map[string]Quota{"hog": {Rate: 10}}, Quota{}, clk.now)

	// Burst defaults to Rate: 10 ops fit at once, the 11th does not.
	if a.admit("hog", 10) != nil {
		t.Fatal("full burst refused")
	}
	if a.admit("hog", 1) == nil {
		t.Fatal("over-burst op admitted")
	}
	// Half a second refills half the bucket.
	clk.advance(500 * time.Millisecond)
	if a.admit("hog", 5) != nil {
		t.Fatal("refilled tokens refused")
	}
	if a.admit("hog", 1) == nil {
		t.Fatal("empty bucket admitted")
	}
	// Refill is capped at capacity, not unbounded.
	clk.advance(time.Hour)
	if a.admit("hog", 10) != nil || a.admit("hog", 1) == nil {
		t.Fatal("refill not capped at burst capacity")
	}
}

func TestAdmitterAllOrNothing(t *testing.T) {
	clk := newFakeClock()
	a := newAdmitter(map[string]Quota{"hog": {Rate: 10, Burst: 5}}, Quota{}, clk.now)

	// A 4-op batch against the 3 tokens left is refused whole, as a shed
	// worth retrying — and spends nothing.
	if err := a.admit("hog", 2); err != nil {
		t.Fatal(err)
	}
	if err := a.admit("hog", 4); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("batch larger than the bucket's level: %v, want ErrOverloaded", err)
	}
	if a.admit("hog", 3) != nil {
		t.Fatal("refused batch consumed tokens")
	}
}

func TestAdmitterDefaultQuotaIsPerTenant(t *testing.T) {
	clk := newFakeClock()
	a := newAdmitter(nil, Quota{Rate: 5}, clk.now)

	// Two unnamed tenants each get their own 5-op bucket, not a shared one.
	if a.admit("a", 5) != nil || a.admit("b", 5) != nil {
		t.Fatal("default quota behaved like a shared pool")
	}
	if a.admit("a", 1) == nil || a.admit("b", 1) == nil {
		t.Fatal("per-tenant default bucket did not empty")
	}
}

func TestAdmitterUnlimited(t *testing.T) {
	a := newAdmitter(map[string]Quota{"vip": {}}, Quota{}, newFakeClock().now)
	for i := 0; i < 3; i++ {
		if a.admit("vip", 1_000_000) != nil {
			t.Fatal("zero quota should be unlimited")
		}
	}
	// No quotas at all: everyone is unlimited.
	if a.admit("anyone", 1_000_000) != nil {
		t.Fatal("zero default quota should be unlimited")
	}
}
