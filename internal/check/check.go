// Package check is the simulator's runtime self-validation layer
// (DESIGN.md §8). The paper's whole argument rests on Attaché being
// functionally invisible: BLEM + COPR must return bit-identical data to
// an ideal oracle-metadata system while only timing changes (§I,
// Fig. 12). This package makes that claim executable:
//
//   - Recorder collects the first divergence a checker observes, with a
//     precise (address, cycle) diagnostic;
//   - Oracle is the differential oracle: it drives the functional
//     Attaché flow (compress + scramble + BLEM) and an ideal
//     oracle-metadata flow from the same request stream, mirrors the
//     timing simulator's COPR training sequence in a shadow predictor,
//     and asserts data, compression outcomes, and predictions agree;
//   - BusAudit asserts the DRAM channel's conservation/timing
//     invariants: requests retire, data-bus bursts never overlap.
//
// Checking is enabled by config.CheckLevel (CLI: attachesim -check) and
// never mutates simulated state, so results with checking on are
// bit-identical to results with it off — only wall-clock time changes.
package check

import (
	"fmt"

	"attache/internal/sim"
)

// Failure describes one detected divergence or invariant violation: what
// went wrong, at which line address, at which simulation cycle.
type Failure struct {
	Addr  uint64
	Cycle sim.Time
	What  string
}

// Error formats the diagnostic the acceptance tests grep for.
func (f *Failure) Error() string {
	return fmt.Sprintf("check: %s at addr=%#x cycle=%d", f.What, f.Addr, f.Cycle)
}

// Recorder keeps the first failure any checker sharing it observed.
// Later failures are dropped: the first divergence is the actionable one,
// everything after it is usually fallout. The zero value is ready to use.
// Recorders are used from a single simulation goroutine; they need no
// locking.
type Recorder struct {
	first *Failure
}

// Failf records a failure if none has been recorded yet.
func (r *Recorder) Failf(addr uint64, cycle sim.Time, format string, args ...any) {
	if r.first != nil {
		return
	}
	r.first = &Failure{Addr: addr, Cycle: cycle, What: fmt.Sprintf(format, args...)}
}

// Err reports the first recorded failure, or nil when every check passed.
func (r *Recorder) Err() error {
	if r.first == nil {
		return nil
	}
	return r.first
}
