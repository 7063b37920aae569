package exp

import (
	"testing"

	"attache/internal/config"
	"attache/internal/trace"
)

// TestCheckedRunsClean runs whole-system simulations with checking fully
// on: the invariant audits and (for Attaché) the differential oracle must
// stay silent on correct code. The mix workload exercises the region
// router's byte-level forwarding.
func TestCheckedRunsClean(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		kind     config.SystemKind
	}{
		{"attache-rate", "zeusmp", config.SystemAttache},
		{"attache-mix", "MIX1", config.SystemAttache},
		{"baseline", "lbm", config.SystemBaseline},
		{"mdcache", "mcf", config.SystemMDCache},
		{"ideal", "milc", config.SystemIdeal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.Check = config.CheckOracle
			profs := workloadProfiles(t, tc.workload, cfg.CPU.Cores)
			if _, err := Run(RunConfig{
				Cfg: cfg, Kind: tc.kind, Profiles: profs,
				AccessesPerCore: 1500, Seed: 42,
			}); err != nil {
				t.Fatalf("checked %s run failed: %v", tc.name, err)
			}
		})
	}
}

func mixByName(name string) (trace.Mix, bool) {
	for _, m := range trace.Mixes() {
		if m.Name == name {
			return m, true
		}
	}
	return trace.Mix{}, false
}
