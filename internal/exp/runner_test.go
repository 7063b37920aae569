package exp

import (
	"strings"
	"testing"

	"attache/internal/config"
	"attache/internal/trace"
)

func smallRun(t *testing.T, name string, kind config.SystemKind, accesses int64) Metrics {
	t.Helper()
	p, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	m, err := Run(RunConfig{
		Cfg:             cfg,
		Kind:            kind,
		Profiles:        RateMode(p, cfg.CPU.Cores),
		AccessesPerCore: accesses,
		Seed:            42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunCompletesAndCounts(t *testing.T) {
	m := smallRun(t, "lbm", config.SystemBaseline, 2000)
	if m.Cycles <= 0 || m.Instructions <= 0 {
		t.Fatalf("cycles=%d instr=%d", m.Cycles, m.Instructions)
	}
	if m.IPC <= 0 || m.IPC > 32 {
		t.Fatalf("aggregate IPC = %v", m.IPC)
	}
	if m.DataReads == 0 || m.BytesMoved == 0 {
		t.Fatal("no memory traffic recorded")
	}
	if m.MetaReads != 0 || m.RAReads != 0 {
		t.Fatal("baseline must not issue metadata or RA traffic")
	}
}

func TestIdealFasterThanBaselineOnCompressibleWorkload(t *testing.T) {
	base := smallRun(t, "lbm", config.SystemBaseline, 3000)
	ideal := smallRun(t, "lbm", config.SystemIdeal, 3000)
	speedup := float64(base.Cycles) / float64(ideal.Cycles)
	if speedup < 1.02 {
		t.Fatalf("ideal speedup = %.3f on lbm (56%% compressible), want > 1.02", speedup)
	}
	if ideal.BytesMoved >= base.BytesMoved {
		t.Fatalf("ideal moved %d bytes vs baseline %d", ideal.BytesMoved, base.BytesMoved)
	}
}

func TestAttacheBetweenMDCacheAndIdeal(t *testing.T) {
	base := smallRun(t, "zeusmp", config.SystemBaseline, 3000)
	md := smallRun(t, "zeusmp", config.SystemMDCache, 3000)
	att := smallRun(t, "zeusmp", config.SystemAttache, 3000)
	ideal := smallRun(t, "zeusmp", config.SystemIdeal, 3000)

	sMD := float64(base.Cycles) / float64(md.Cycles)
	sAtt := float64(base.Cycles) / float64(att.Cycles)
	sIdeal := float64(base.Cycles) / float64(ideal.Cycles)
	t.Logf("speedups: md=%.3f attache=%.3f ideal=%.3f", sMD, sAtt, sIdeal)
	if !(sAtt > sMD) {
		t.Fatalf("attache (%.3f) should beat mdcache (%.3f)", sAtt, sMD)
	}
	if !(sIdeal >= sAtt) {
		t.Fatalf("ideal (%.3f) should bound attache (%.3f)", sIdeal, sAtt)
	}
	if att.CoprAccuracy < 0.7 {
		t.Fatalf("COPR accuracy = %.3f on homogeneous workload", att.CoprAccuracy)
	}
	if md.MDHitRate <= 0 {
		t.Fatal("mdcache hit rate not recorded")
	}
	if md.MetaReads == 0 {
		t.Fatal("mdcache system must fetch metadata")
	}
	if att.MetaReads != 0 {
		t.Fatal("attache must not fetch metadata")
	}
}

func TestIncompressibleWorkloadNoHarm(t *testing.T) {
	base := smallRun(t, "libquantum", config.SystemBaseline, 3000)
	att := smallRun(t, "libquantum", config.SystemAttache, 3000)
	s := float64(base.Cycles) / float64(att.Cycles)
	if s < 0.95 {
		t.Fatalf("attache slows incompressible workload by %.3f", s)
	}
}

func TestMixRunsPerCoreProfiles(t *testing.T) {
	mix := trace.Mixes()[0]
	profs, err := MixProfiles(mix)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(RunConfig{
		Cfg:             config.Default(),
		Kind:            config.SystemAttache,
		Profiles:        profs,
		AccessesPerCore: 1500,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || m.CoprAccuracy == 0 {
		t.Fatal("mix run produced no results")
	}
}

func TestRunValidation(t *testing.T) {
	p, _ := trace.ByName("lbm")
	cfg := config.Default()
	if _, err := Run(RunConfig{Cfg: cfg, Profiles: nil, AccessesPerCore: 10}); err == nil {
		t.Fatal("expected error for no profiles")
	}
	if _, err := Run(RunConfig{Cfg: cfg, Profiles: RateMode(p, 3), AccessesPerCore: 10}); err == nil {
		t.Fatal("expected error for profile/core mismatch")
	}
	if _, err := Run(RunConfig{Cfg: cfg, Profiles: RateMode(p, cfg.CPU.Cores), AccessesPerCore: 0}); err == nil {
		t.Fatal("expected error for zero accesses")
	}
	// LLC geometry the cache cannot index comes back as Run's error: zero
	// ways used to panic in cache.New, 12 MiB used to run as 8 MiB.
	for _, mut := range []func(*config.Config){
		func(c *config.Config) { c.CPU.LLCWays = 0 },
		func(c *config.Config) { c.CPU.LLCBytes = 12 << 20 },
	} {
		bad := cfg
		mut(&bad)
		if _, err := Run(RunConfig{Cfg: bad, Profiles: RateMode(p, cfg.CPU.Cores), AccessesPerCore: 10}); err == nil {
			t.Fatalf("expected error for LLC of %d bytes, %d ways", bad.CPU.LLCBytes, bad.CPU.LLCWays)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := smallRun(t, "mcf", config.SystemAttache, 1000)
	b := smallRun(t, "mcf", config.SystemAttache, 1000)
	if a.Cycles != b.Cycles || a.TotalRequests != b.TotalRequests {
		t.Fatalf("runs differ: %d/%d vs %d/%d", a.Cycles, a.TotalRequests, b.Cycles, b.TotalRequests)
	}
}

func TestRunWithExternalSources(t *testing.T) {
	cfg := config.Default()
	// A small looping trace shared by every core, with an explicit line
	// model (70% compressible).
	mkSource := func() trace.Source {
		ft, err := trace.ParseTrace(strings.NewReader(
			"R 0x100000 10\nW 0x200000 10\nR 0x300040 10\nR 0x8000000 10\n"))
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	sources := make([]trace.Source, cfg.CPU.Cores)
	for i := range sources {
		sources[i] = mkSource()
	}
	// No Profiles: Sources and LineModel override everything they feed.
	m, err := Run(RunConfig{
		Cfg:             cfg,
		Kind:            config.SystemAttache,
		AccessesPerCore: 2000,
		Seed:            3,
		Sources:         sources,
		LineModel:       trace.NewDataModel(1, 0.7, 0.9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	// Four distinct lines per core shared across cores: tiny footprint,
	// so after warmup nearly everything hits the LLC.
	if m.LLCMissRate > 0.05 {
		t.Fatalf("LLC miss rate %.3f on a 4-line trace, want ~0", m.LLCMissRate)
	}
}

func TestRunSourceCountValidated(t *testing.T) {
	cfg := config.Default()
	p, _ := trace.ByName("lbm")
	_, err := Run(RunConfig{
		Cfg:             cfg,
		Kind:            config.SystemBaseline,
		Profiles:        RateMode(p, cfg.CPU.Cores),
		AccessesPerCore: 100,
		Sources:         make([]trace.Source, 2), // wrong count
	})
	if err == nil {
		t.Fatal("expected source-count error")
	}
	// Sources alone do not excuse Profiles: the data model still comes
	// from them.
	_, err = Run(RunConfig{
		Cfg:             cfg,
		Kind:            config.SystemBaseline,
		AccessesPerCore: 100,
		Sources:         make([]trace.Source, cfg.CPU.Cores),
	})
	if err == nil {
		t.Fatal("expected a no-profiles error when only Sources override them")
	}
	// With both overrides the source count is still held to the cores.
	_, err = Run(RunConfig{
		Cfg:             cfg,
		Kind:            config.SystemBaseline,
		AccessesPerCore: 100,
		Sources:         make([]trace.Source, 2),
		LineModel:       trace.NewDataModel(1, 0.5, 0.5),
	})
	if err == nil {
		t.Fatal("expected source-count error without profiles")
	}
}

// TestSteadyStateAllocationBudget pins the simulator's allocation rate
// per memory reference, machine-independently: for each system kind the
// difference between a run of 2N and a run of N references per core
// cancels everything set-up allocates (LLC, COPR tables, generators,
// the pools' first fills) and leaves what N more references cost. Every
// kind measures under 0.003, so leaking one allocation per ~100
// references fails.
func TestSteadyStateAllocationBudget(t *testing.T) {
	const n = 2000
	const budget = 0.01 // allocations per memory reference
	cfg := config.Default()
	p, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []config.SystemKind{
		config.SystemBaseline, config.SystemIdeal, config.SystemAttache, config.SystemMDCache, config.SystemECC,
	} {
		allocs := func(refs int64) float64 {
			return testing.AllocsPerRun(1, func() {
				if _, err := Run(RunConfig{Cfg: cfg, Kind: kind, Profiles: RateMode(p, cfg.CPU.Cores),
					AccessesPerCore: refs, Seed: 42}); err != nil {
					t.Fatal(err)
				}
			})
		}
		perRef := (allocs(2*n) - allocs(n)) / float64(n*cfg.CPU.Cores)
		t.Logf("%v: %.4f allocations per memory reference", kind, perRef)
		if perRef > budget {
			t.Errorf("%v: %.3f allocations per memory reference in steady state, budget %.2f", kind, perRef, budget)
		}
	}
}
