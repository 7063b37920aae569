package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/tier"
	"attache/internal/workload"
)

// TestScenarioShapeExplicitFlagsWin: under -scenario, -space and -prefill
// given on the command line win even when they equal their defaults, and
// only flags given count as given.
func TestScenarioShapeExplicitFlagsWin(t *testing.T) {
	spec := workload.Spec{AddrSpace: 4096, Prefill: 100}
	for _, c := range []struct {
		args          []string
		space         uint64
		prefill       int
		engineFlagSet bool
	}{
		{nil, 4096, 100, false},
		{[]string{"-space", "65536"}, 65536, 100, false},
		{[]string{"-prefill", "0"}, 4096, 0, false},
		{[]string{"-space", "65536", "-prefill", "0", "-shards", "4"}, 65536, 0, true},
	} {
		fs := flag.NewFlagSet("attacheload", flag.ContinueOnError)
		space := fs.Uint64("space", 1<<16, "")
		prefill := fs.Int("prefill", 0, "")
		fs.Int("shards", 4, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		given := givenFlags(fs)
		cfg := loadgen.Config{AddrSpace: *space, Prefill: *prefill}
		scenarioShape(&cfg, spec, given)
		if cfg.AddrSpace != c.space || cfg.Prefill != c.prefill || given["shards"] != c.engineFlagSet {
			t.Errorf("%v: space %d prefill %d shards given %v, want %d %d %v",
				c.args, cfg.AddrSpace, cfg.Prefill, given["shards"], c.space, c.prefill, c.engineFlagSet)
		}
	}
}

func TestTierCap(t *testing.T) {
	if got := tierCap(-1); got != "unbounded" {
		t.Fatalf("tierCap(-1) = %q", got)
	}
	if got := tierCap(4096); got != "4096" {
		t.Fatalf("tierCap(4096) = %q", got)
	}
}

// TestPrintReport renders a fully-populated report (engine and tier
// sections, tenants, queue wait, errors) and checks every section appears.
func TestPrintReport(t *testing.T) {
	rep := loadgen.Report{
		Checksum:   "deadbeef",
		Events:     10,
		Ops:        20,
		OpsOK:      18,
		Duration:   time.Second,
		Throughput: 20,
		Errors:     map[string]uint64{"overloaded": 2},
		Latency:    map[string]loadgen.Quantiles{"read": {Count: 9}},
		QueueWait:  map[string]loadgen.Quantiles{"read": {Count: 9}},
		Engine: &core.StatsSnapshot{
			Reads: 10, Writes: 10, BlocksRead: 15, BlocksWritten: 15,
			CompressedLines: 4, Lines: 8, RAOccupancy: 1, PredictionAccuracy: 0.75,
		},
		Tiers: &tier.Snapshot{
			Policy: "freq", NearCapacity: -1, NearResident: 3,
			NearReads: 5, FarReads: 4, Promotions: 3,
		},
		PerTenant: map[string]loadgen.TenantReport{
			"acme": {Events: 10, Ops: 20, OpsOK: 18, Shed: 2},
		},
	}

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	printReport(rep)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		"plan checksum  deadbeef",
		"latency read",
		"qwait   read",
		"errors overloaded",
		"engine         8 lines, 0.5000 compressed, 0.7500 prediction accuracy",
		"engine traffic 0.2500 bandwidth savings, 1 RA occupancy",
		"tiers  freq",
		"unbounded cap",
		"tier traffic",
		"far link",
		"tenant acme",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}
