package cpu

import (
	"strings"
	"testing"

	"attache/internal/sim"
	"attache/internal/trace"
)

// fixedMem completes every read after a fixed latency and counts traffic.
type fixedMem struct {
	eng         *sim.Engine
	latency     sim.Time
	reads       int
	writes      int
	inFlight    int
	maxInFlight int
}

func (m *fixedMem) Read(addr uint64, done func(sim.Time)) {
	m.reads++
	m.inFlight++
	if m.inFlight > m.maxInFlight {
		m.maxInFlight = m.inFlight
	}
	m.eng.ScheduleAfter(m.latency, func(now sim.Time) {
		m.inFlight--
		done(now)
	})
}

func (m *fixedMem) Write(addr uint64) { m.writes++ }

func coreProfile(p trace.Pattern, gap int64, storeFrac float64) trace.Profile {
	return trace.Profile{
		Name: "t", Pattern: p, Stride: 2, FootprintBytes: 1 << 22,
		CompressibleFrac: 0.5, PageHomogeneity: 0.5,
		StoreFrac: storeFrac, MeanGap: gap, DataSeed: 1,
	}
}

func defaultCfg() Config { return Config{IssueWidth: 4, ROBSize: 192, MSHRs: 16} }

func runCore(t *testing.T, prof trace.Profile, cfg Config, latency sim.Time, target int64) (*Core, *fixedMem, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: latency}
	gen := trace.NewGenerator(prof, 11, 0)
	var finish sim.Time = -1
	c := NewCore(eng, 0, cfg, gen, target, mem, func(now sim.Time) { finish = now })
	c.StartAt(0)
	if !eng.RunUntilDone(50_000_000) {
		t.Fatal("simulation did not drain")
	}
	if finish < 0 {
		t.Fatal("core never finished")
	}
	return c, mem, finish
}

func TestCoreCompletesTrace(t *testing.T) {
	c, mem, finish := runCore(t, coreProfile(trace.PatternRandom, 20, 0.25), defaultCfg(), 100, 1000)
	if done, ft := c.Finished(); !done || ft != finish {
		t.Fatal("finish state inconsistent")
	}
	if mem.reads+mem.writes != 1000 {
		t.Fatalf("memory refs = %d, want 1000", mem.reads+mem.writes)
	}
	if c.Stats.Loads+c.Stats.Stores != 1000 {
		t.Fatalf("stats refs = %d", c.Stats.Loads+c.Stats.Stores)
	}
	if c.Stats.Instructions < 1000 {
		t.Fatalf("instructions = %d, want >= refs", c.Stats.Instructions)
	}
}

func TestLatencySensitivity(t *testing.T) {
	// Pointer-chase (MLP=1) runtime must scale with memory latency.
	prof := coreProfile(trace.PatternPointerChase, 10, 0)
	_, _, fast := runCore(t, prof, defaultCfg(), 50, 500)
	_, _, slow := runCore(t, prof, defaultCfg(), 500, 500)
	ratio := float64(slow) / float64(fast)
	if ratio < 5 {
		t.Fatalf("10x latency gave only %.1fx slowdown for dependent loads", ratio)
	}
}

func TestMLPHidesLatencyForIndependentLoads(t *testing.T) {
	// At equal latency, independent loads overlap in the MSHRs while
	// dependent loads serialize: the independent stream must run several
	// times faster and reach high memory-level parallelism.
	indep, indepMem, tIndep := runCore(t, coreProfile(trace.PatternRandom, 10, 0), defaultCfg(), 400, 500)
	_, _, tDep := runCore(t, coreProfile(trace.PatternPointerChase, 10, 0), defaultCfg(), 400, 500)
	if indepMem.maxInFlight < 8 {
		t.Fatalf("independent loads reached MLP %d, want >= 8", indepMem.maxInFlight)
	}
	if float64(tDep) < float64(tIndep)*4 {
		t.Fatalf("dependent %d vs independent %d cycles; want >= 4x gap", tDep, tIndep)
	}
	_ = indep
}

func TestMSHRLimitRespected(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSHRs = 4
	_, mem, _ := runCore(t, coreProfile(trace.PatternRandom, 2, 0), cfg, 1000, 500)
	if mem.maxInFlight > 4 {
		t.Fatalf("in-flight reads peaked at %d with 4 MSHRs", mem.maxInFlight)
	}
}

func TestROBLimitBoundsRunahead(t *testing.T) {
	// With a tiny ROB the core cannot overlap distant loads even with
	// many MSHRs: runtime approaches serialized latency.
	prof := coreProfile(trace.PatternRandom, 40, 0)
	small := defaultCfg()
	small.ROBSize = 8
	big := defaultCfg()
	big.ROBSize = 1024
	_, _, tSmall := runCore(t, prof, small, 400, 500)
	_, _, tBig := runCore(t, prof, big, 400, 500)
	if float64(tSmall) < float64(tBig)*1.5 {
		t.Fatalf("small ROB (%d) not slower than big ROB (%d)", tSmall, tBig)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	_, mem, _ := runCore(t, coreProfile(trace.PatternPointerChase, 5, 0), defaultCfg(), 200, 300)
	if mem.maxInFlight > 1 {
		t.Fatalf("dependent loads overlapped: max in-flight = %d", mem.maxInFlight)
	}
}

func TestStoresArePosted(t *testing.T) {
	// A store-only stream never blocks on memory: runtime is issue-bound.
	prof := coreProfile(trace.PatternStream, 8, 1.0)
	c, mem, finish := runCore(t, prof, defaultCfg(), 100000, 1000)
	if mem.writes != 1000 || mem.reads != 0 {
		t.Fatalf("traffic = %d reads, %d writes", mem.reads, mem.writes)
	}
	// ~8000 instructions at 4 IPC ~= 2000 cycles.
	idealCycles := c.Stats.Instructions / 4
	if finish > idealCycles*3/2 {
		t.Fatalf("store stream took %d cycles, issue-bound ideal %d", finish, idealCycles)
	}
}

func TestIPCWithinIssueWidth(t *testing.T) {
	c, _, _ := runCore(t, coreProfile(trace.PatternRandom, 30, 0.2), defaultCfg(), 80, 2000)
	_, finish := c.Finished()
	ipc := float64(c.Stats.Instructions) / float64(finish)
	if ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %.2f, want (0, 4]", ipc)
	}
}

func TestStallCyclesTracked(t *testing.T) {
	c, _, _ := runCore(t, coreProfile(trace.PatternPointerChase, 5, 0), defaultCfg(), 500, 300)
	if c.Stats.StallCycles == 0 {
		t.Fatal("dependent loads at 500-cycle latency must stall")
	}
}

func TestNewCoreValidation(t *testing.T) {
	eng := sim.NewEngine()
	gen := trace.NewGenerator(coreProfile(trace.PatternRandom, 5, 0), 1, 0)
	mem := &fixedMem{eng: eng, latency: 1}
	for _, f := range []func(){
		func() { NewCore(eng, 0, Config{IssueWidth: 0, ROBSize: 10, MSHRs: 10}, gen, 10, mem, nil) },
		func() { NewCore(eng, 0, Config{IssueWidth: 4, ROBSize: 0, MSHRs: 10}, gen, 10, mem, nil) },
		func() { NewCore(eng, 0, Config{IssueWidth: 4, ROBSize: 10, MSHRs: 0}, gen, 10, mem, nil) },
		func() { NewCore(eng, 0, defaultCfg(), gen, 0, mem, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine()
		mem := &fixedMem{eng: eng, latency: 77}
		gen := trace.NewGenerator(coreProfile(trace.PatternPageLocal, 12, 0.3), 5, 0)
		var finish sim.Time
		c := NewCore(eng, 0, defaultCfg(), gen, 800, mem, func(now sim.Time) { finish = now })
		c.StartAt(0)
		eng.RunUntilDone(10_000_000)
		return finish
	}
	if run() != run() {
		t.Fatal("core simulation not deterministic")
	}
}

func TestIPCZeroBeforeFinish(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: 1000}
	gen := trace.NewGenerator(coreProfile(trace.PatternRandom, 5, 0), 1, 0)
	c := NewCore(eng, 0, defaultCfg(), gen, 1000, mem, nil)
	c.StartAt(0)
	if done, at := c.Finished(); done || at != 0 {
		t.Fatal("core finished without running")
	}
}

func TestStartAtOffsetsFirstActivity(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: 10}
	gen := trace.NewGenerator(coreProfile(trace.PatternStream, 2, 0), 1, 0)
	var finish sim.Time
	c := NewCore(eng, 0, defaultCfg(), gen, 50, mem, func(now sim.Time) { finish = now })
	c.StartAt(500)
	eng.RunUntilDone(1_000_000)
	if finish < 500 {
		t.Fatalf("core finished at %d despite starting at 500", finish)
	}
}

func TestFileTraceDrivesCore(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: 20}
	ft, err := trace.ParseTrace(strings.NewReader("R 0x0 4\nW 0x40 4\nR 0x80 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	var finish sim.Time
	c := NewCore(eng, 0, defaultCfg(), ft, 9, mem, func(now sim.Time) { finish = now }) // 3 loops
	c.StartAt(0)
	eng.RunUntilDone(1_000_000)
	if finish == 0 {
		t.Fatal("core did not finish")
	}
	if mem.reads != 6 || mem.writes != 3 {
		t.Fatalf("traffic = %d reads, %d writes; want 6/3", mem.reads, mem.writes)
	}
}

// TestLoadSlotsBoundedByMSHRs: the core recycles its load slots and
// compacts pending in place, so a long run ends holding at most MSHRs
// slots and the pending array it started with.
func TestLoadSlotsBoundedByMSHRs(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSHRs = 4
	c, mem, _ := runCore(t, coreProfile(trace.PatternRandom, 2, 0), cfg, 1000, 500)
	if mem.reads != 500 {
		t.Fatalf("reads = %d, want 500", mem.reads)
	}
	if n := len(c.slotFree); n == 0 || n > cfg.MSHRs {
		t.Fatalf("%d load slots after 500 loads, want 1..%d", n, cfg.MSHRs)
	}
	if len(c.pending) != 0 || cap(c.pending) != cfg.MSHRs {
		t.Fatalf("pending len %d cap %d, want 0 and the original %d", len(c.pending), cap(c.pending), cfg.MSHRs)
	}
}
