package check

import (
	"strings"
	"testing"
)

func TestRecorderKeepsFirstFailure(t *testing.T) {
	var r Recorder
	if r.first != nil || r.Err() != nil {
		t.Fatal("fresh recorder must be clean")
	}
	r.Failf(0xabc, 120, "first: %d", 1)
	r.Failf(0xdef, 240, "second: %d", 2)
	if r.first == nil {
		t.Fatal("recorder must report failure")
	}
	err := r.Err()
	if err == nil {
		t.Fatal("Err must be non-nil after Failf")
	}
	msg := err.Error()
	if !strings.Contains(msg, "first: 1") {
		t.Fatalf("first failure must stick, got %q", msg)
	}
	if strings.Contains(msg, "second") {
		t.Fatalf("later failures must not overwrite the first, got %q", msg)
	}
}

func TestFailureMessageCarriesAddressAndCycle(t *testing.T) {
	var r Recorder
	r.Failf(0x1f40, 777, "something diverged")
	msg := r.Err().Error()
	for _, want := range []string{"addr=0x1f40", "cycle=777", "check:", "something diverged"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q missing %q", msg, want)
		}
	}
}

func TestBusAuditOverlapDetected(t *testing.T) {
	var r Recorder
	a := NewBusAudit(&r, 3)
	a.OnSubmit()
	a.OnSubmit()
	a.OnIssue(10, 5)
	a.OnBurst(0, 100, 116, 10, 100)
	a.OnIssue(11, 6)
	a.OnBurst(0, 110, 126, 11, 110) // starts before the previous burst ended
	if r.first == nil {
		t.Fatal("overlapping bursts on one sub-rank must fail")
	}
	if !strings.Contains(r.Err().Error(), "data-bus overlap") {
		t.Fatalf("unexpected diagnostic %q", r.Err().Error())
	}
}

func TestBusAuditIndependentSubRanks(t *testing.T) {
	var r Recorder
	a := NewBusAudit(&r, 0)
	a.OnSubmit()
	a.OnSubmit()
	a.OnIssue(1, 0)
	a.OnIssue(2, 0)
	// Same window on different sub-ranks: legal (that is the point of
	// sub-ranking).
	a.OnBurst(0, 100, 116, 1, 100)
	a.OnBurst(1, 100, 116, 2, 100)
	a.CheckDrained(0, 0, 200)
	if err := r.Err(); err != nil {
		t.Fatalf("legal schedule flagged: %v", err)
	}
}

func TestBusAuditConservationAtDrain(t *testing.T) {
	var r Recorder
	a := NewBusAudit(&r, 1)
	a.OnSubmit()
	a.OnSubmit()
	a.OnIssue(1, 0)
	a.CheckDrained(0, 0, 50) // one submitted request vanished
	if r.first == nil {
		t.Fatal("lost request must fail conservation")
	}
	if !strings.Contains(r.Err().Error(), "request conservation") {
		t.Fatalf("unexpected diagnostic %q", r.Err().Error())
	}
}

func TestBusAuditIssueOverrun(t *testing.T) {
	var r Recorder
	a := NewBusAudit(&r, 2)
	a.OnSubmit()
	a.OnIssue(1, 0)
	a.OnIssue(2, 0) // issued a request that was never submitted
	if r.first == nil {
		t.Fatal("issuing more than submitted must fail")
	}
}

func TestBusAuditQuietSkipNamesChannelCycleAndTime(t *testing.T) {
	var r Recorder
	NewBusAudit(&r, 2).OnQuietSkip(0x50003, 30, 20)
	f, ok := r.Err().(*Failure)
	if !ok || f.Addr != 0x50003 || f.Cycle != 20 {
		t.Fatalf("failure = %+v, want address 0x50003 at cycle 20", r.Err())
	}
	for _, want := range []string{"channel 2", "quiet until 30"} {
		if !strings.Contains(f.What, want) {
			t.Fatalf("diagnostic %q does not name %q", f.What, want)
		}
	}
}
