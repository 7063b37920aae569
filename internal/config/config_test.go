package config

import "testing"

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default()
	if c.CPU.Cores != 8 || c.CPU.IssueWidth != 4 {
		t.Fatal("core parameters do not match Table II")
	}
	if c.CPU.LLCBytes != 8<<20 || c.CPU.LLCWays != 8 || c.CPU.LLCLatency != 20 {
		t.Fatal("LLC parameters do not match Table II")
	}
	if c.DRAM.Channels != 2 || c.DRAM.RanksPerCh != 1 {
		t.Fatal("channel parameters do not match Table II")
	}
	if c.DRAM.BankGroups != 4 || c.DRAM.BanksPerGroup != 4 {
		t.Fatal("bank parameters do not match Table II")
	}
	if c.DRAM.RowsPerBank != 65536 || c.DRAM.BlocksPerRow != 128 {
		t.Fatal("row parameters do not match Table II")
	}
	if c.DRAM.TRCD != 22 || c.DRAM.TRP != 22 || c.DRAM.TCAS != 22 {
		t.Fatal("DRAM timings do not match Table II")
	}
}

func TestBusToCPUConversion(t *testing.T) {
	c := Default()
	if r := c.CPUCyclesPerBusCycle(); r != 2.5 {
		t.Fatalf("clock ratio = %v, want 2.5", r)
	}
	if got := c.BusToCPU(22); got != 55 {
		t.Fatalf("BusToCPU(22) = %d, want 55", got)
	}
	if got := c.BusToCPU(4); got != 10 {
		t.Fatalf("BusToCPU(4) = %d, want 10", got)
	}
}

func TestMemorySize(t *testing.T) {
	c := Default()
	// 2 ch x 1 rank x 16 banks x 64K rows x 8KB rows = 16 GB.
	if got := c.MemorySize(); got != 16<<30 {
		t.Fatalf("memory size = %d, want 16 GiB", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.CPU.Cores = 0 }},
		{"zero issue", func(c *Config) { c.CPU.IssueWidth = 0 }},
		{"zero rob", func(c *Config) { c.CPU.ROBSize = 0 }},
		{"zero mshrs", func(c *Config) { c.CPU.MSHRs = 0 }},
		{"three channels", func(c *Config) { c.DRAM.Channels = 3 }},
		{"zero bank groups", func(c *Config) { c.DRAM.BankGroups = 0 }},
		{"odd blocks per row", func(c *Config) { c.DRAM.BlocksPerRow = 100 }},
		{"three sub-ranks", func(c *Config) { c.DRAM.SubRanks = 3 }},
		{"zero CID", func(c *Config) { c.Attache.CIDBits = 0 }},
		{"16-bit CID", func(c *Config) { c.Attache.CIDBits = 16 }},
		{"tiny md cache", func(c *Config) { c.MDCache.Bytes = 1 }},
		{"high water over depth", func(c *Config) { c.DRAM.WriteHighWater = c.DRAM.WriteBufDepth + 1 }},
		{"low water over high", func(c *Config) { c.DRAM.WriteLowWater = c.DRAM.WriteHighWater }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

// TestValidateLLCGeometry: the LLC must be one the cache can index — a
// positive power of two of sets — so the size a run is warmed for is the
// size it simulates.
func TestValidateLLCGeometry(t *testing.T) {
	cases := []struct {
		name    string
		bytes   int64
		ways    int
		latency int64
		ok      bool
	}{
		{"table II", 8 << 20, 8, 20, true},
		{"1 MiB 16-way", 1 << 20, 16, 20, true},
		{"one set", 8 * 64, 8, 0, true},
		{"12-way, 4096 sets", 12 * 64 * 4096, 12, 20, true},
		{"zero ways", 8 << 20, 0, 20, false},
		{"negative ways", 8 << 20, -8, 20, false},
		{"negative latency", 8 << 20, 8, -1, false},
		{"12 MiB is 24576 sets", 12 << 20, 8, 20, false},
		{"smaller than one set", 4 * 64, 8, 20, false},
		{"zero bytes", 0, 8, 20, false},
		{"negative bytes", -8 << 20, 8, 20, false},
	}
	for _, tc := range cases {
		c := Default()
		c.CPU.LLCBytes, c.CPU.LLCWays, c.CPU.LLCLatency = tc.bytes, tc.ways, tc.latency
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSystemKindString(t *testing.T) {
	cases := map[SystemKind]string{
		SystemBaseline: "baseline",
		SystemMDCache:  "mdcache",
		SystemAttache:  "attache",
		SystemIdeal:    "ideal",
		SystemKind(9):  "SystemKind(9)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
