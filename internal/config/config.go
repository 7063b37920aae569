// Package config defines the system configurations used across the Attaché
// simulator. The defaults reproduce Table II of the paper (baseline system
// configuration) plus the Attaché-specific parameters from Sections III-IV.
package config

import "fmt"

// LineSize is the bytes per cacheline / memory block (paper §I, §II).
const LineSize = 64

// CheckLevel selects how much runtime self-validation the simulator
// performs (DESIGN.md §8). Checking never changes simulated behaviour or
// results — it only observes and cross-validates them.
type CheckLevel int

const (
	// CheckOff disables all runtime checking (the default; zero overhead).
	CheckOff CheckLevel = iota
	// CheckInvariants enables cheap conservation/timing assertions: every
	// scheduled event fires exactly once, every issued DRAM request
	// retires, per-sub-rank data-bus bursts never overlap, MSHR and queue
	// occupancies stay within bounds.
	CheckInvariants
	// CheckOracle additionally runs the differential oracle on Attaché
	// systems: a functional shadow (compress + scramble + BLEM + a
	// mirrored COPR) driven from the same request stream, asserting
	// returned line data, compression outcomes, and predictions match an
	// ideal oracle-metadata flow bit-for-bit. Slow; for validation runs.
	CheckOracle
)

// String returns the CLI spelling of the level.
func (l CheckLevel) String() string {
	switch l {
	case CheckOff:
		return "off"
	case CheckInvariants:
		return "invariants"
	case CheckOracle:
		return "oracle"
	default:
		return fmt.Sprintf("CheckLevel(%d)", int(l))
	}
}

// ParseCheckLevel converts a CLI string into a CheckLevel.
func ParseCheckLevel(s string) (CheckLevel, error) {
	switch s {
	case "off", "":
		return CheckOff, nil
	case "invariants":
		return CheckInvariants, nil
	case "oracle":
		return CheckOracle, nil
	default:
		return 0, fmt.Errorf("config: unknown check level %q (want off, invariants, or oracle)", s)
	}
}

// SystemKind selects which memory-system organization a simulation models.
type SystemKind int

const (
	// SystemBaseline is the uncompressed, non-sub-ranked system every
	// result is normalized against.
	SystemBaseline SystemKind = iota
	// SystemMDCache is sub-ranking + compression with a Metadata-Cache
	// (the prior-work organization Attaché is compared to).
	SystemMDCache
	// SystemAttache is sub-ranking + compression with BLEM + COPR.
	SystemAttache
	// SystemIdeal is sub-ranking + compression with free oracle metadata:
	// no metadata traffic, perfect pre-read compressibility knowledge.
	SystemIdeal
	// SystemECC models the Deb et al. alternative the paper contrasts in
	// §VII-A: metadata rides for free in ECC storage (so, like BLEM, it
	// arrives with the data), but the pre-read guess comes from a simple
	// last-outcome predictor instead of COPR.
	SystemECC
)

// String returns the canonical name used in tables and figures.
func (k SystemKind) String() string {
	switch k {
	case SystemBaseline:
		return "baseline"
	case SystemMDCache:
		return "mdcache"
	case SystemAttache:
		return "attache"
	case SystemIdeal:
		return "ideal"
	case SystemECC:
		return "ecc-meta"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// CPU holds the processor-side parameters (Table II).
type CPU struct {
	Cores      int // 8 OoO cores
	ClockGHz   float64
	IssueWidth int   // 4
	ROBSize    int   // reorder-buffer window in instructions
	MSHRs      int   // outstanding LLC misses per core
	LLCBytes   int64 // 8 MB shared
	LLCWays    int   // 8
	LLCLatency int64 // 20 cycles
	// LLCPrefetch enables the LLC's next-line prefetcher (off by
	// default: Table II does not specify one).
	LLCPrefetch bool
}

// DRAM holds the memory-system parameters (Table II). All timing values are
// in memory-bus cycles; CPUCyclesPerBusCycle converts them into the engine's
// CPU-cycle clock.
type DRAM struct {
	Channels        int // 2
	RanksPerCh      int // 1
	BankGroups      int // 4
	BanksPerGroup   int // 4
	RowsPerBank     int // 64K
	BlocksPerRow    int // 128 x 64B = 8KB row
	BusMHz          float64
	TRCD, TRP, TCAS int64 // 22-22-22 bus cycles
	TRFC            int64 // refresh cycle time, bus cycles (350ns)
	TREFI           int64 // refresh interval, bus cycles (7.8us)
	// TFAW is the four-activate window in bus cycles; at most four row
	// activations may issue to a (sub-)rank within it. Table II does not
	// specify it, so the default configuration disables it (0); the
	// ablation benches exercise DDR4-typical values (~28).
	TFAW           int64
	BurstBusCycles int64 // BL8: 4 bus cycles per 64B (or 32B per sub-rank)
	SubRanks       int   // 2 when sub-ranking is enabled

	// Controller queueing (the read queue is unbounded).
	WriteBufDepth  int
	WriteHighWater int // drain writes above this occupancy
	WriteLowWater  int // stop draining below this

	// SchedFCFS disables the row-hit-first scheduler (FR-FCFS, the
	// default) in favor of strict first-come-first-served — an ablation
	// knob (DESIGN.md §7).
	SchedFCFS bool
	// ClosedPage precharges a bank right after each access instead of
	// keeping the row open (open-page is the default).
	ClosedPage bool
}

// Attache holds the Attaché framework parameters (Sections III-IV).
type Attache struct {
	CIDBits int // 15
	// COPR component sizes.
	PaPRBytes        int // 192 KB
	PaPRWays         int
	LiPRBytes        int // 176 KB
	LiPRWays         int
	GICounters       int  // eight 2-bit counters
	EnableGI         bool // ablation switches (Fig. 17)
	EnablePaPR       bool
	EnableLiPR       bool
	PredictorLatency int64 // 8 CPU cycles, same as the MD-cache lookup
}

// MDCache holds the Metadata-Cache baseline parameters (§II-G, §IV-C1).
type MDCache struct {
	Bytes   int    // 1 MB by default ("optimistically impractical")
	Ways    int    // 16
	Policy  string // "lru", "drrip", "ship"
	Latency int64  // 8 CPU cycles lookup
}

// Config bundles a full system configuration.
type Config struct {
	CPU     CPU
	DRAM    DRAM
	Attache Attache
	MDCache MDCache
	// Check selects the runtime self-validation level (DESIGN.md §8).
	// It never changes simulated timing or results.
	Check CheckLevel
}

// Default returns the Table II baseline configuration with the paper's
// Attaché parameters.
func Default() Config {
	return Config{
		CPU: CPU{
			Cores:      8,
			ClockGHz:   4.0,
			IssueWidth: 4,
			ROBSize:    192,
			MSHRs:      16,
			LLCBytes:   8 << 20,
			LLCWays:    8,
			LLCLatency: 20,
		},
		DRAM: DRAM{
			Channels:       2,
			RanksPerCh:     1,
			BankGroups:     4,
			BanksPerGroup:  4,
			RowsPerBank:    64 * 1024,
			BlocksPerRow:   128,
			BusMHz:         1600,
			TRCD:           22,
			TRP:            22,
			TCAS:           22,
			TRFC:           560,   // 350 ns @ 1600 MHz
			TREFI:          12480, // 7.8 us @ 1600 MHz
			BurstBusCycles: 4,
			SubRanks:       2,
			WriteBufDepth:  64,
			WriteHighWater: 48,
			WriteLowWater:  16,
		},
		Attache: Attache{
			CIDBits:          15,
			PaPRBytes:        192 << 10,
			PaPRWays:         16,
			LiPRBytes:        176 << 10,
			LiPRWays:         16,
			GICounters:       8,
			EnableGI:         true,
			EnablePaPR:       true,
			EnableLiPR:       true,
			PredictorLatency: 8,
		},
		MDCache: MDCache{
			Bytes:   1 << 20,
			Ways:    16,
			Policy:  "lru",
			Latency: 8,
		},
	}
}

// CPUCyclesPerBusCycle reports the CPU-clock to memory-bus-clock ratio
// (4 GHz / 1600 MHz = 2.5). Timing conversion multiplies bus cycles by this
// and rounds to the nearest CPU cycle.
func (c Config) CPUCyclesPerBusCycle() float64 {
	return c.CPU.ClockGHz * 1000 / c.DRAM.BusMHz
}

// BusToCPU converts a bus-cycle count into CPU cycles.
func (c Config) BusToCPU(busCycles int64) int64 {
	return int64(float64(busCycles)*c.CPUCyclesPerBusCycle() + 0.5)
}

// MemorySize reports the modeled main-memory capacity in bytes.
func (c Config) MemorySize() int64 {
	rowBytes := int64(c.DRAM.BlocksPerRow) * LineSize
	banks := int64(c.DRAM.BankGroups * c.DRAM.BanksPerGroup)
	return int64(c.DRAM.Channels) * int64(c.DRAM.RanksPerCh) * banks * int64(c.DRAM.RowsPerBank) * rowBytes
}

// Validate reports an error for configurations the simulator cannot model.
func (c Config) Validate() error {
	switch {
	case c.CPU.Cores <= 0:
		return fmt.Errorf("config: cores must be positive, got %d", c.CPU.Cores)
	case c.CPU.IssueWidth <= 0:
		return fmt.Errorf("config: issue width must be positive, got %d", c.CPU.IssueWidth)
	case c.CPU.ROBSize <= 0:
		return fmt.Errorf("config: ROB size must be positive, got %d", c.CPU.ROBSize)
	case c.CPU.MSHRs <= 0:
		return fmt.Errorf("config: MSHRs must be positive, got %d", c.CPU.MSHRs)
	case c.CPU.LLCWays <= 0:
		return fmt.Errorf("config: LLC ways must be positive, got %d", c.CPU.LLCWays)
	case c.CPU.LLCLatency < 0:
		return fmt.Errorf("config: LLC latency must not be negative, got %d", c.CPU.LLCLatency)
	case !positivePowerOfTwo(c.CPU.LLCBytes / LineSize / int64(c.CPU.LLCWays)):
		return fmt.Errorf("config: LLC of %d bytes and %d ways does not have a positive power of two of sets", c.CPU.LLCBytes, c.CPU.LLCWays)
	case c.DRAM.Channels <= 0 || c.DRAM.Channels&(c.DRAM.Channels-1) != 0:
		return fmt.Errorf("config: channels must be a positive power of two, got %d", c.DRAM.Channels)
	case c.DRAM.BankGroups <= 0 || c.DRAM.BanksPerGroup <= 0:
		return fmt.Errorf("config: bank geometry must be positive")
	case c.DRAM.BlocksPerRow <= 0 || c.DRAM.BlocksPerRow&(c.DRAM.BlocksPerRow-1) != 0:
		return fmt.Errorf("config: blocks per row must be a positive power of two, got %d", c.DRAM.BlocksPerRow)
	case c.DRAM.SubRanks != 1 && c.DRAM.SubRanks != 2:
		return fmt.Errorf("config: sub-ranks must be 1 or 2, got %d", c.DRAM.SubRanks)
	case c.Attache.CIDBits < 1 || c.Attache.CIDBits > 15:
		return fmt.Errorf("config: CID bits must be in [1,15], got %d", c.Attache.CIDBits)
	case c.MDCache.Bytes < LineSize:
		return fmt.Errorf("config: metadata cache smaller than one line")
	case c.DRAM.WriteHighWater > c.DRAM.WriteBufDepth:
		return fmt.Errorf("config: write high watermark exceeds buffer depth")
	case c.DRAM.WriteLowWater >= c.DRAM.WriteHighWater:
		return fmt.Errorf("config: write low watermark must be below high watermark")
	case c.Check < CheckOff || c.Check > CheckOracle:
		return fmt.Errorf("config: unknown check level %d", int(c.Check))
	}
	return nil
}

func positivePowerOfTwo(n int64) bool { return n > 0 && n&(n-1) == 0 }
