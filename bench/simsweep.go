package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"attache/internal/config"
	"attache/internal/exp"
	"attache/internal/trace"
)

const simSweepName = "sim-sweep"

const simSweepWhy = "simulator sweep {mcf,zeusmp,STREAM,MIX1} x {baseline,mdcache,attache}: sim, cpu, cache, memctrl, mdcache, dram do all the work, serving layers none; an op is a simulated memory reference in host time"

// simRefsPerCore is the length of one simulation of the sweep. The
// paper-scale sweep (60 000 per core) takes 17 s, longer than a whole
// run may; 3 000 keeps a cell near 0.07 s and a pass under a second, so
// a run holds enough passes for their quiet decile.
const simRefsPerCore = 3000

// goldenSeed is the seed whose 12 simulation results are committed.
const goldenSeed = 42

// paperSpeedup is the paper's headline: Attaché's mean speedup over the
// uncompressed baseline.
const paperSpeedup = 1.153

var (
	simProfiles = []string{"mcf", "zeusmp", "STREAM", "MIX1"}
	simSystems  = []config.SystemKind{config.SystemBaseline, config.SystemMDCache, config.SystemAttache}
)

// goldenFile holds the 12 simulation results of goldenSeed.
const goldenFile = "testdata/sim-sweep.seed42.json"

//go:embed testdata/sim-sweep.seed42.json
var goldenJSON []byte

// simCell is one simulation of the sweep.
type simCell struct {
	name     string // "mcf/attache"
	kind     config.SystemKind
	profiles []trace.Profile // one per core
}

// simCells resolves the sweep: profile-major, system-minor.
func simCells(cores int) ([]simCell, error) {
	var cells []simCell
	for _, name := range simProfiles {
		profs, err := coreProfiles(name, cores)
		if err != nil {
			return nil, err
		}
		for _, k := range simSystems {
			cells = append(cells, simCell{name: name + "/" + k.String(), kind: k, profiles: profs})
		}
	}
	return cells, nil
}

// coreProfiles is a benchmark in rate mode or one of the catalog's mixes.
func coreProfiles(name string, cores int) ([]trace.Profile, error) {
	for _, m := range trace.Mixes() {
		if m.Name == name {
			return exp.MixProfiles(m)
		}
	}
	p, err := trace.ByName(name)
	if err != nil {
		return nil, err
	}
	return exp.RateMode(p, cores), nil
}

func (c simCell) run(seed, refs int64, check config.CheckLevel) (exp.Metrics, error) {
	cfg := config.Default()
	cfg.Check = check
	return exp.Run(exp.RunConfig{Cfg: cfg, Kind: c.kind, Profiles: c.profiles, AccessesPerCore: refs, Seed: seed})
}

// simSetUp resolves the sweep and runs every cell once at a twentieth
// of the length under the simulator's own invariant checks: the warm-up
// pass, and the output check that works at any seed.
func simSetUp(seed int64) ([]simCell, error) {
	cells, err := simCells(config.Default().CPU.Cores)
	if err != nil {
		return nil, err
	}
	if _, err := onePass(cells, seed, simRefsPerCore/20, config.CheckInvariants); err != nil {
		return nil, fmt.Errorf("warm-up %w", err)
	}
	return cells, nil
}

// onePass runs every cell once, in order.
func onePass(cells []simCell, seed, refs int64, check config.CheckLevel) ([]exp.Metrics, error) {
	ms := make([]exp.Metrics, len(cells))
	for i, c := range cells {
		var err error
		if ms[i], err = c.run(seed, refs, check); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return ms, nil
}

// runSimSweep is the untraced run of sim-sweep: passes over the sweep
// until time is up. A pass (12 simulations, about 0.85 s) is to this
// workload what a window is to the serving ones: every timing is taken
// per pass and the run reports the quiet decile of its passes.
func runSimSweep(seed int64, seconds float64) (*record, error) {
	rec := newRecord(simSweepName, seed, seconds, false)

	var cells []simCell
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if cells, err = simSetUp(seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	length := time.Duration(seconds * float64(time.Second))
	memrefs := uint64(simRefsPerCore * len(cells[0].profiles))
	passRefs := float64(memrefs) * float64(len(cells))
	var (
		first                    []exp.Metrics
		rates, mids, tails, cpus []float64
	)
	ref := &reference{}
	liveHeap() // collect the warm-up's garbage before the clock starts
	mark := markUsage()
	for time.Since(mark.t) < length {
		taken := make([]float64, len(cells))
		passStart, passCPU := time.Now(), cpuTime()
		for c := range cells {
			ref.tick(time.Since(mark.t))
			begin := time.Now()
			m, err := cells[c].run(seed, simRefsPerCore, config.CheckOff)
			taken[c] = micros(time.Since(begin))
			rec.Attempted += memrefs
			switch {
			case err != nil:
				rec.Failed += memrefs
				rec.fail("%s: %v", cells[c].name, err)
			case len(first) < len(cells):
				first = append(first, m)
			case m != first[c]:
				rec.Failed += memrefs
				rec.fail("%s: repeat %d differs from the first run of the same simulation", cells[c].name, len(rates))
			}
		}
		if rec.Failed > 0 {
			return rec, nil
		}
		rates = append(rates, passRefs/time.Since(passStart).Seconds())
		cpus = append(cpus, micros(cpuTime()-passCPU)/passRefs)
		slices.Sort(taken)
		mids = append(mids, midmean(taken)) // of 12 simulations, the middle 6
		tails = append(tails, taken[len(taken)-1])
	}
	used := mark.since()

	digest, err := sweepDigest(cells, first)
	if err != nil {
		return nil, err
	}
	rec.Notes["digest"] = digest
	rec.Notes["passes"] = len(rates)
	if seed == goldenSeed {
		if err := checkGolden(cells, first); err != nil {
			rec.Failed = rec.Attempted
			rec.fail("golden: %v", err)
		}
	}
	speedup, savings := sweepHeadlines(first)
	rec.Notes["sim_speedup_attache"] = speedup
	rec.Notes["sim_speedup_error_vs_paper"] = speedup - paperSpeedup

	// Every time is stated for the nominal host (reference.go).
	slow, err := ref.slowdown()
	if err != nil {
		return nil, err
	}
	rec.Notes["host_slowdown"] = slow
	rec.set("setup_s", median(setups)/slow)
	rec.set("goodput_ops_s", quiet(rates, "higher")*slow)
	// The 12 simulations of a pass are 12 different ones, so a pass's
	// midmean is its typical simulation and its tail the longest.
	rec.set("event_mid_us", quiet(mids, "lower")/slow)
	rec.set("event_tail_us", quiet(tails, "lower")/slow)
	rec.set("cpu_us_per_op", quiet(cpus, "lower")/slow)
	rec.set("allocs_per_op", float64(used.mallocs-ref.mallocs())/float64(rec.Attempted))
	rec.set("bandwidth_savings", savings)
	return rec, nil
}

// sweepHeadlines derives the paper's two quantities from one sweep:
// the geomean over profiles of baseline cycles / attache cycles, and the
// share of DRAM bytes attache avoided against the baseline.
func sweepHeadlines(m []exp.Metrics) (speedup, savings float64) {
	var logSum float64
	var base, att uint64
	for p := range simProfiles {
		b, a := m[p*len(simSystems)], m[p*len(simSystems)+2]
		logSum += math.Log(float64(b.Cycles) / float64(a.Cycles))
		base += b.BytesMoved
		att += a.BytesMoved
	}
	return math.Exp(logSum / float64(len(simProfiles))), 1 - float64(att)/float64(base)
}

// goldenSweep is the committed file: the 12 results of seed 42, by cell.
type goldenSweep struct {
	Seed        int64                  `json:"seed"`
	RefsPerCore int64                  `json:"refs_per_core"`
	Cells       map[string]exp.Metrics `json:"cells"`
}

func sweepJSON(cells []simCell, m []exp.Metrics, seed int64) ([]byte, error) {
	g := goldenSweep{Seed: seed, RefsPerCore: simRefsPerCore, Cells: map[string]exp.Metrics{}}
	for i, c := range cells {
		g.Cells[c.name] = m[i]
	}
	return json.MarshalIndent(g, "", "  ")
}

// sweepDigest fingerprints every simulated statistic of the sweep, so
// two commits can be compared exactly at any seed.
func sweepDigest(cells []simCell, m []exp.Metrics) (string, error) {
	b, err := sweepJSON(cells, m, 0)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

func checkGolden(cells []simCell, m []exp.Metrics) error {
	var g goldenSweep
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("%s: %w", goldenFile, err)
	}
	if g.RefsPerCore != simRefsPerCore {
		return fmt.Errorf("committed at %d refs per core, the sweep runs %d", g.RefsPerCore, simRefsPerCore)
	}
	for i, c := range cells {
		if want, ok := g.Cells[c.name]; !ok || want != m[i] {
			return fmt.Errorf("%s differs from the committed result:\n got  %+v\n want %+v", c.name, m[i], want)
		}
	}
	return nil
}

// writeGolden regenerates the committed sim-sweep results.
func writeGolden() error {
	cells, err := simCells(config.Default().CPU.Cores)
	if err != nil {
		return err
	}
	ms, err := onePass(cells, goldenSeed, simRefsPerCore, config.CheckOff)
	if err != nil {
		return err
	}
	b, err := sweepJSON(cells, ms, goldenSeed)
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(b, '\n'), 0o644)
}
