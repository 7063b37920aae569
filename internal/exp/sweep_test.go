package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"attache/internal/config"
)

// parTestHarness is a harness small enough to simulate the whole
// registry quickly: default cores (the mixes need all 8), but only 300
// references each and a 1 MB LLC (warming the LLC, not the measured run,
// is what a short simulation spends its time on).
func parTestHarness() *Harness {
	h := NewHarness(1)
	h.AccessesPerCore = 300
	h.Cfg.CPU.LLCBytes = 1 << 20
	return h
}

// fakeSimulate swaps the simulator for f until the test ends.
func fakeSimulate(t *testing.T, f func(RunConfig) (Metrics, error)) {
	t.Helper()
	simulate = f
	t.Cleanup(func() { simulate = Run })
}

// TestParallelMatchesSerial is the determinism guarantee: a harness that
// fans out 8 simulations at a time must produce byte-identical tables and
// bit-identical Metrics to one that runs every cell in order on the
// caller — for every experiment in the registry, the configuration
// sweeps (fig5/fig16/fig17) included.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweeps")
	}
	serial := parTestHarness()
	serial.Parallelism = 1
	par := parTestHarness()
	par.Parallelism = 8

	for _, e := range Experiments() {
		want, err := e.Run(serial)
		if err != nil {
			t.Fatalf("serial %s: %v", e.ID, err)
		}
		got, err := e.Run(par)
		if err != nil {
			t.Fatalf("parallel %s: %v", e.ID, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: table differs between serial and parallel runs\nserial:\n%s\nparallel:\n%s", e.ID, want, got)
		}
	}

	for _, w := range serial.Workloads() {
		for _, s := range fourSystems {
			ms, err1 := serial.runCached(w, s)
			mp, err2 := par.runCached(w, s)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%v: errors %v / %v", w, s.kind, err1, err2)
			}
			if ms != mp {
				t.Errorf("%s/%v: Metrics differ between serial and parallel harnesses", w, s.kind)
			}
		}
	}
}

// TestRunCachedSingleflight hammers one key from many goroutines: the
// simulation must execute exactly once and every caller must observe the
// same result. Run under -race this also exercises the cache locking.
func TestRunCachedSingleflight(t *testing.T) {
	h := parTestHarness()
	var executions atomic.Int32
	h.Progress = func(string) { executions.Add(1) }

	const callers = 16
	results := make([]Metrics, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = h.runCached("lbm", sys(config.SystemAttache))
		}(i)
	}
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Errorf("run executed %d times, want exactly 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("caller %d observed a different Metrics than caller 0", i)
		}
	}
}

// TestRegistrySimulationCount pins what the whole registry costs on one
// harness: per workload, the 5 systems plus the configurations that
// differ from the default — 4 metadata-cache sizes, 2 replacement
// policies, 2 COPR mixes. The 1 MB size, LRU and the full predictor are
// the default configuration and share its runs.
func TestRegistrySimulationCount(t *testing.T) {
	h := parTestHarness()
	h.Parallelism = 8
	fakeSimulate(t, func(RunConfig) (Metrics, error) { return Metrics{Cycles: 1}, nil })
	var executions atomic.Int32
	h.Progress = func(string) { executions.Add(1) }
	for _, e := range Experiments() {
		if _, err := e.Run(h); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if got, want := int(executions.Load()), len(h.Workloads())*13; got != want {
		t.Errorf("registry executed %d simulations, want %d (13 per workload)", got, want)
	}
}

// TestSweepBoundsConcurrency: two experiments sweeping at once on one
// harness reach Parallelism simulations executing between them and never
// exceed it.
func TestSweepBoundsConcurrency(t *testing.T) {
	const bound = 3
	h := parTestHarness()
	h.Parallelism = bound
	var running, peak atomic.Int32
	full := make(chan struct{}) // closed once bound simulations run at once
	fakeSimulate(t, func(RunConfig) (Metrics, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n == bound {
			select {
			case <-full:
			default:
				close(full)
			}
		}
		<-full                             // the first arrivals wait for the bound to be reached,
		time.Sleep(100 * time.Microsecond) // and all linger, so a run admitted beyond it would overlap
		running.Add(-1)
		return Metrics{Cycles: 1}, nil
	})
	var wg sync.WaitGroup
	for _, id := range []string{"fig12", "fig5"} {
		e, _ := Lookup(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(h); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != bound {
		t.Errorf("peak concurrent simulations = %d, want exactly Parallelism = %d", p, bound)
	}
}

// TestSweepSurfacesRunError: a failing run fails exactly the experiments
// that need it, with the memoized error itself — the first one in
// (workload, spec) order when several cells fail — at any parallelism.
func TestSweepSurfacesRunError(t *testing.T) {
	for _, par := range []int{1, 8} {
		h := parTestHarness()
		h.Parallelism = par
		fakeSimulate(t, func(rc RunConfig) (Metrics, error) {
			if rc.Kind == config.SystemIdeal {
				return Metrics{}, fmt.Errorf("boom on %s", rc.Profiles[0].Name)
			}
			return Metrics{Cycles: 1}, nil
		})
		fig11, _ := Lookup("fig11")
		if _, err := fig11.Run(h); err != nil {
			t.Fatalf("parallelism %d: fig11 needs no ideal run, got %v", par, err)
		}
		fig12, _ := Lookup("fig12")
		_, err := fig12.Run(h)
		first := h.Workloads()[0]
		_, want := h.runCached(first, sys(config.SystemIdeal))
		if want == nil || err != want {
			t.Fatalf("parallelism %d: fig12 error = %v, want the memoized %v", par, err, want)
		}
	}
}

// TestRunsAreKeyedByInputs: the same workload and system under two
// configurations are two runs; a configuration equal to the default is
// the default run, however it was arrived at.
func TestRunsAreKeyedByInputs(t *testing.T) {
	h := parTestHarness()
	fakeSimulate(t, func(rc RunConfig) (Metrics, error) {
		return Metrics{Cycles: 1, DataReads: uint64(rc.Cfg.MDCache.Bytes)}, nil
	})
	executions := 0
	h.Progress = func(string) { executions++ }
	sized := func(bytes int) runSpec {
		return runSpec{"same label", config.SystemMDCache, func(cfg config.Config) config.Config {
			cfg.MDCache.Bytes = bytes
			return cfg
		}}
	}
	for _, tc := range []struct {
		spec       runSpec
		wantBytes  int
		executions int
	}{
		{sys(config.SystemMDCache), h.Cfg.MDCache.Bytes, 1},
		{sized(64 << 10), 64 << 10, 2},
		{sized(h.Cfg.MDCache.Bytes), h.Cfg.MDCache.Bytes, 2}, // the default, spelled differently
		{sized(64 << 10), 64 << 10, 2},
	} {
		m, err := h.runCached("lbm", tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.DataReads != uint64(tc.wantBytes) || executions != tc.executions {
			t.Errorf("got the %d-byte run after %d executions, want the %d-byte run after %d",
				m.DataReads, executions, tc.wantBytes, tc.executions)
		}
	}
}
