package memctrl

import (
	"strings"
	"testing"

	"attache/internal/config"
	"attache/internal/sim"
	"attache/internal/trace"
)

// newCheckedSystem builds an Attaché system over a real data model with
// the given check level, so the differential oracle can attach.
func newCheckedSystem(t *testing.T, level config.CheckLevel) (*sim.Engine, *System, *trace.DataModel) {
	t.Helper()
	cfg := config.Default()
	cfg.Check = level
	dm := trace.NewDataModel(7, 0.5, 0.8)
	eng := sim.NewEngine()
	s, err := New(eng, cfg, config.SystemAttache, dm, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, dm
}

func drain(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if !eng.RunUntilDone(5_000_000) {
		t.Fatal("engine did not drain")
	}
}

func TestCheckOffHasNoRecorder(t *testing.T) {
	eng, s := newSystem(t, config.SystemAttache, allCompressible())
	if s.Audit() != nil || s.checker != nil {
		t.Fatal("check off must not allocate checking state")
	}
	readSync(t, eng, s, 42)
	if err := s.CheckErr(); err != nil {
		t.Fatalf("CheckErr with check off: %v", err)
	}
}

func TestOracleNeedsDataModel(t *testing.T) {
	// A boolean-only LineModel cannot feed the functional flows: the
	// system still audits invariants but attaches no oracle.
	cfg := config.Default()
	cfg.Check = config.CheckOracle
	s, err := New(sim.NewEngine(), cfg, config.SystemAttache, allCompressible(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Audit() == nil {
		t.Fatal("recorder must exist at CheckOracle")
	}
	if s.checker != nil {
		t.Fatal("oracle must not attach without line bytes")
	}

	_, sc, _ := newCheckedSystem(t, config.CheckOracle)
	if sc.checker == nil {
		t.Fatal("oracle must attach to an Attaché system over a DataModel")
	}
}

func TestInvariantLevelSkipsOracle(t *testing.T) {
	_, s, _ := newCheckedSystem(t, config.CheckInvariants)
	if s.Audit() == nil {
		t.Fatal("recorder must exist at CheckInvariants")
	}
	if s.checker != nil {
		t.Fatal("oracle must not attach below CheckOracle")
	}
}

// TestCheckedTrafficClean is the no-false-positives test: a mixed
// read/write workload through the full Attaché flow must satisfy every
// invariant and match the ideal flow bit for bit.
func TestCheckedTrafficClean(t *testing.T) {
	eng, s, _ := newCheckedSystem(t, config.CheckOracle)
	for i := uint64(0); i < 400; i++ {
		addr := 1000 + i%128
		if i%3 == 0 {
			s.Write(addr)
		} else {
			s.Read(addr, nil)
		}
		drain(t, eng)
	}
	if err := s.CheckErr(); err != nil {
		t.Fatalf("clean traffic flagged: %v", err)
	}
	if s.checker.Lines() == 0 {
		t.Fatal("oracle saw no lines; hooks are not wired")
	}
}

// TestMutationSuppressTrain proves the oracle catches a lost COPR
// training call: the simulator's predictor and the oracle's shadow
// predictor drift apart, and a later prediction comparison fails.
func TestMutationSuppressTrain(t *testing.T) {
	// A skewed model (85% compressible, every page line-mixed) guarantees
	// pages that are almost entirely compressible yet contain a probe.
	cfg := config.Default()
	cfg.Check = config.CheckOracle
	dm := trace.NewDataModel(7, 0.85, 0)
	eng := sim.NewEngine()
	s, err := New(eng, cfg, config.SystemAttache, dm, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Pick a page whose lines are mostly compressible, and a probe line
	// within it that is NOT: the suppressed training call then leaves the
	// simulator's line-level predictor without the probe's "uncompressed"
	// observation while the page-level bias says "compressed".
	var probe uint64
	found := false
	for page := uint64(10); page < 5000 && !found; page++ {
		base := page * trace.LinesPerPage
		comp := 0
		probeCand := uint64(0)
		for i := uint64(0); i < trace.LinesPerPage; i++ {
			if dm.Compressible(base + i) {
				comp++
			} else if probeCand == 0 {
				probeCand = base + i
			}
		}
		if comp >= trace.LinesPerPage-8 && probeCand != 0 {
			probe, found = probeCand, true
		}
	}
	if !found {
		t.Fatal("no suitable page in the data model")
	}

	// Warm the page bias toward "compressed" through ordinary writes.
	base := (probe / trace.LinesPerPage) * trace.LinesPerPage
	for i := uint64(0); i < trace.LinesPerPage; i++ {
		if a := base + i; a != probe && dm.Compressible(a) {
			s.Write(a)
		}
	}
	drain(t, eng)
	if err := s.CheckErr(); err != nil {
		t.Fatalf("warmup already dirty: %v", err)
	}

	// The mutation: the write happens, but its training call is lost —
	// the controller's predictor ends up holding the opposite of what the
	// write observed, while the oracle's shadow keeps the specified one.
	s.Write(probe)
	drain(t, eng)
	s.copr.Train(probe*config.LineSize, !s.compressed(probe))

	// The probe read must expose the drift.
	s.Read(probe, nil)
	drain(t, eng)
	err = s.CheckErr()
	if err == nil {
		t.Fatal("suppressed COPR training call escaped the oracle")
	}
	if !strings.Contains(err.Error(), "training sequence drift") {
		t.Fatalf("want a prediction-drift diagnostic, got %q", err.Error())
	}
}

// TestSuppressTrainControl is the control experiment for the mutation
// above: the identical sequence without the injection must stay clean.
func TestSuppressTrainControl(t *testing.T) {
	eng, s, dm := newCheckedSystem(t, config.CheckOracle)
	var probe uint64
	for a := uint64(640); a < 320000; a++ {
		if !dm.Compressible(a) {
			probe = a
			break
		}
	}
	base := (probe / trace.LinesPerPage) * trace.LinesPerPage
	for i := uint64(0); i < trace.LinesPerPage; i++ {
		if a := base + i; a != probe && dm.Compressible(a) {
			s.Write(a)
		}
	}
	s.Write(probe)
	drain(t, eng)
	s.Read(probe, nil)
	drain(t, eng)
	if err := s.CheckErr(); err != nil {
		t.Fatalf("control sequence flagged: %v", err)
	}
}
