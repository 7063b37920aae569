package exp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"attache/internal/blem"
	"attache/internal/compress"
	"attache/internal/config"
	"attache/internal/dram"
	"attache/internal/scramble"
	"attache/internal/sim"
	"attache/internal/stats"
	"attache/internal/trace"
)

// Harness runs the paper's experiments with memoized simulation results,
// so figures that share runs (12/13/14 share the four-system sweep;
// 1/11/15 reuse slices of it) pay for them once. The memo cache is keyed
// by a run's inputs and has singleflight semantics: two goroutines asking
// for the same run execute it exactly once. Experiments fetch their runs
// through sweep (sweep.go), which is where the parallelism lives.
type Harness struct {
	Cfg             config.Config
	AccessesPerCore int64
	Seeds           []int64
	// Progress, when set, receives one line per completed run. Calls are
	// serialized by an internal mutex so concurrent runs do not interleave
	// mid-line.
	Progress func(msg string)
	// Parallelism bounds how many simulations execute at once, across
	// every caller of the harness; set it before the first run. Values
	// <= 1 (the zero value included) run serially on the caller. Results
	// do not depend on it.
	Parallelism int
	// Trace, when set, replaces the workload catalog with one recorded
	// trace, so every experiment runs on it.
	Trace *TraceWorkload

	mu         sync.Mutex // guards cache and the creation of slots
	cache      map[runInputs]*memoRun
	slots      chan struct{} // one token per executing simulation
	progressMu sync.Mutex
}

// TraceWorkload is a recorded trace standing in for the catalog. Every
// core replays its own cursor over the recording (rate mode). A trace
// records addresses but not data, so line contents are modeled: a
// trace.DataModel seeded with the run's seed makes Compressibility of
// the lines compress to <= 30 bytes, clustered by 4 KB page with
// probability Homogeneity.
type TraceWorkload struct {
	Name                         string // row label in result tables
	Recording                    *trace.FileTrace
	Compressibility, Homogeneity float64
}

// runInputs is the memoization identity of one simulation: everything it is
// a function of besides the harness-wide run length, seeds and trace.
// config.Config is comparable; a slice field added to it would stop this
// file compiling rather than silently alias two runs.
type runInputs struct {
	workload string
	kind     config.SystemKind
	cfg      config.Config
}

// memoRun is one run's cache entry and singleflight rendezvous. Errors
// are memoized too, so a failed simulation is not retried by every figure
// that shares it.
type memoRun struct {
	done chan struct{} // closed when m/err are final
	m    Metrics
	err  error
}

// RefsPerCore is a run's length at scale 1, in memory references per core.
const RefsPerCore = 12000

// NewHarness builds a harness; scale multiplies RefsPerCore, and no run is
// shorter than 500 references per core.
func NewHarness(scale float64) *Harness {
	return &Harness{
		Cfg:             config.Default(),
		AccessesPerCore: max(int64(RefsPerCore*scale), 500),
		Seeds:           []int64{42},
		Parallelism:     runtime.GOMAXPROCS(0),
	}
}

// Workloads lists every workload of the evaluation: the catalog plus the
// two mixes, or the one recorded trace when Trace is set.
func (h *Harness) Workloads() []string {
	if h.Trace != nil {
		return []string{h.Trace.Name}
	}
	names := trace.Names()
	for _, m := range trace.Mixes() {
		names = append(names, m.Name)
	}
	return names
}

func (h *Harness) profilesFor(name string) ([]trace.Profile, error) {
	for _, m := range trace.Mixes() {
		if m.Name == name {
			return MixProfiles(m)
		}
	}
	p, err := trace.ByName(name)
	if err != nil {
		return nil, err
	}
	return RateMode(p, h.Cfg.CPU.Cores), nil
}

// simulate is Run, behind a variable so tests can instrument the
// scheduler without simulating.
var simulate = Run

// runCached executes (or recalls) one simulation, averaging over the
// harness seeds. It is safe for concurrent use: the first caller for a
// key executes the run, holding one of the Parallelism slots while it
// does; any later caller blocks, slotless, until that result is final
// (singleflight).
func (h *Harness) runCached(workload string, s runSpec) (Metrics, error) {
	key := runInputs{workload, s.kind, h.Cfg}
	if s.mod != nil {
		key.cfg = s.mod(h.Cfg)
	}
	h.mu.Lock()
	if h.cache == nil {
		h.cache = map[runInputs]*memoRun{}
		h.slots = make(chan struct{}, max(h.Parallelism, 1))
	}
	r, found := h.cache[key]
	if !found {
		r = &memoRun{done: make(chan struct{})}
		h.cache[key] = r
	}
	h.mu.Unlock()
	if found {
		<-r.done
		return r.m, r.err
	}

	name := fmt.Sprintf("%s|%v|%s", workload, s.kind, s.label)
	h.slots <- struct{}{}
	r.m, r.err = h.executeRun(name, key)
	<-h.slots
	close(r.done)
	if r.err == nil && h.Progress != nil {
		h.progressMu.Lock()
		h.Progress(fmt.Sprintf("ran %-28s cycles=%d", name, r.m.Cycles))
		h.progressMu.Unlock()
	}
	return r.m, r.err
}

// executeRun performs the actual simulations for one cache key; name
// labels it in errors.
func (h *Harness) executeRun(name string, key runInputs) (Metrics, error) {
	// A recorded trace supplies its own access streams and data model;
	// only a catalog workload has profiles.
	var profs []trace.Profile
	if h.Trace == nil {
		var err error
		if profs, err = h.profilesFor(key.workload); err != nil {
			return Metrics{}, err
		}
	}
	var acc Metrics
	for _, seed := range h.Seeds {
		rc := RunConfig{
			Cfg:             key.cfg,
			Kind:            key.kind,
			Profiles:        profs,
			AccessesPerCore: h.AccessesPerCore,
			Seed:            seed,
		}
		if tw := h.Trace; tw != nil {
			rc.Sources = make([]trace.Source, key.cfg.CPU.Cores)
			for i := range rc.Sources {
				rc.Sources[i] = tw.Recording.Clone()
			}
			rc.LineModel = trace.NewDataModel(uint64(seed), tw.Compressibility, tw.Homogeneity)
		}
		m, err := simulate(rc)
		if err != nil {
			return Metrics{}, fmt.Errorf("run %s: %w", name, err)
		}
		stats.Add(&acc, m)
	}
	stats.Scale(&acc, 1/float64(len(h.Seeds)))
	return acc, nil
}

// Experiments returns the evaluation as one list of declarations: the
// paper's artifacts in paper order, then the extensions. The CLI, the
// golden snapshots, the benchmarks and compare all walk it.
func Experiments() []Experiment {
	mdSize := func(bytes int) runSpec {
		return runSpec{fmt.Sprintf("size=%d", bytes), config.SystemMDCache,
			func(cfg config.Config) config.Config { cfg.MDCache.Bytes = bytes; return cfg }}
	}
	policy := func(pol string) runSpec {
		return runSpec{"policy=" + pol, config.SystemMDCache,
			func(cfg config.Config) config.Config { cfg.MDCache.Policy = pol; return cfg }}
	}
	copr := func(label string, gi, lipr bool) runSpec {
		return runSpec{label, config.SystemAttache, func(cfg config.Config) config.Config {
			cfg.Attache.EnableGI, cfg.Attache.EnablePaPR, cfg.Attache.EnableLiPR = gi, true, lipr
			return cfg
		}}
	}
	speedups := func(m []Metrics) []float64 { return vsBaseline(m, speedup) }

	return []Experiment{
		// Fig. 1: per benchmark, the proportion of compressed memory
		// blocks and the extra memory traffic metadata accesses cause.
		{ID: "fig1", Title: "Fig 1: metadata traffic overhead (1MB metadata cache)",
			Columns: []string{"compressed_pct", "extra_traffic_pct"},
			specs:   []runSpec{sys(config.SystemMDCache)},
			row: func(m []Metrics) []float64 {
				data := float64(m[0].DataReads + m[0].DataWrites)
				meta := float64(m[0].MetaReads + m[0].MetaWrites)
				return []float64{m[0].CompressedReadFrac * 100, meta / data * 100}
			}},
		{ID: "fig2", Title: "Fig 2: sub-ranking latency/bandwidth micro-comparison",
			Columns: []string{"idle_latency_cycles", "stream_cycles", "relative_bandwidth"},
			body:    subRanking},
		{ID: "fig4", Title: "Fig 4: % of 64B lines compressible to 30B",
			Columns: []string{"compressible_pct"},
			body:    compressibility},
		// Fig. 5: hit rate and the speedup it buys as the metadata cache
		// grows from 64 KB to 1 MB.
		{ID: "fig5", Title: "Fig 5: metadata-cache size sweep (suite averages)",
			Columns: []string{"hit_rate", "speedup"},
			specs: []runSpec{sys(config.SystemBaseline),
				mdSize(64 << 10), mdSize(128 << 10), mdSize(256 << 10), mdSize(512 << 10), mdSize(1 << 20)},
			rows: []string{"64KB", "128KB", "256KB", "512KB", "1024KB"},
			cells: func(m []Metrics, r int) []float64 {
				return []float64{m[r+1].MDHitRate, speedup(m[r+1], m[0])}
			}},
		{ID: "fig8", Title: "Fig 8: CID collision probability vs accesses (15-bit CID)",
			Columns: []string{"analytic_p", "measured_p"},
			body:    collisionCurve},
		{ID: "tab1", Title: "Table I: extending CID to store additional information",
			Columns: []string{"info_bits", "analytic_collision_pct", "measured_collision_pct"},
			body:    cidWidths},
		{ID: "fig11", Title: "Fig 11: COPR prediction accuracy",
			Columns: []string{"accuracy"},
			specs:   []runSpec{sys(config.SystemAttache)},
			row:     func(m []Metrics) []float64 { return []float64{m[0].CoprAccuracy} }},
		{ID: "fig12", Title: "Fig 12: speedup normalized to baseline",
			Columns: []string{"mdcache", "attache", "ideal"},
			specs:   fourSystems,
			row:     speedups},
		{ID: "fig13", Title: "Fig 13: energy normalized to baseline",
			Columns: []string{"mdcache", "attache", "ideal"},
			specs:   fourSystems,
			row:     func(m []Metrics) []float64 { return vsBaseline(m, energyRatio) }},
		// Fig. 14: "useful bandwidth" is work per cycle. The systems move
		// the same payload, so the payload rate ratio is the inverse cycle
		// ratio.
		{ID: "fig14", Title: "Fig 14: useful bandwidth (a) and memory latency (b), normalized to baseline",
			Columns: []string{"bw_mdcache", "bw_attache", "bw_ideal", "lat_mdcache", "lat_attache", "lat_ideal"},
			specs:   fourSystems,
			row: func(m []Metrics) []float64 {
				return append(vsBaseline(m, speedup), vsBaseline(m, latencyRatio)...)
			}},
		// Fig. 15: the Metadata-Cache system's requests normalized to its
		// own data requests, split into reads and writes.
		{ID: "fig15", Title: "Fig 15: normalized requests with metadata caching",
			Columns: []string{"norm_reads", "norm_writes", "norm_total"},
			specs:   []runSpec{sys(config.SystemMDCache)},
			row: func(ms []Metrics) []float64 {
				m := ms[0]
				dataReads := float64(m.DataReads + m.CorrectionReads)
				dataWrites := float64(m.DataWrites)
				return []float64{
					(dataReads + float64(m.MetaReads)) / dataReads,
					(dataWrites + float64(m.MetaWrites)) / dataWrites,
					(dataReads + dataWrites + float64(m.MetaReads+m.MetaWrites)) / (dataReads + dataWrites),
				}
			}},
		{ID: "fig16", Title: "Fig 16: metadata-cache hit rate by replacement policy",
			Columns: []string{"lru", "drrip", "ship"},
			specs:   []runSpec{policy("lru"), policy("drrip"), policy("ship")},
			row: func(m []Metrics) []float64 {
				return []float64{m[0].MDHitRate, m[1].MDHitRate, m[2].MDHitRate}
			}},
		// Fig. 17: PaPR alone, PaPR + GI, and the full predictor (adding
		// LiPR, which matters for the mixed workloads).
		{ID: "fig17", Title: "Fig 17: speedup by COPR component mix",
			Columns: []string{"papr_only", "papr_gi", "full"},
			specs: []runSpec{sys(config.SystemBaseline),
				copr("papr", false, false), copr("papr+gi", true, false), copr("full", true, true)},
			row: speedups},
		{ID: "compare", Title: "Paper vs measured (suite-level claims)",
			Columns: []string{"paper", "measured", "ratio"},
			body:    compare},
		// Where each system's energy goes. It explains Fig. 13:
		// compression saves dynamic transfer and activation energy
		// directly, and background energy through shorter runtime.
		{ID: "energy", Title: "Energy breakdown by component (suite-mean fractions)",
			Columns: []string{"activate", "read", "write", "refresh", "background"},
			body:    energyBreakdown},
		// COPR's contribution in isolation: the Deb et al. alternative
		// (§VII-A) keeps metadata in ECC bits and guesses with a
		// same-budget last-outcome predictor. Both systems have
		// metadata-free reads, so the remaining gap is predictor quality.
		{ID: "predictors", Title: "COPR vs last-outcome predictor (ECC metadata, Deb et al.)",
			Columns: []string{"ecc_speedup", "attache_speedup", "ecc_accuracy", "copr_accuracy"},
			specs:   []runSpec{sys(config.SystemBaseline), sys(config.SystemECC), sys(config.SystemAttache)},
			row: func(m []Metrics) []float64 {
				return append(vsBaseline(m, speedup), m[1].ECCAccuracy, m[2].CoprAccuracy)
			}},
		// Which COPR level answers each prediction, and how accurately:
		// the division of labor Fig. 10 implies — LiPR for observed lines,
		// PaPR for page-resident pages, GI for cold pages.
		{ID: "copr-anatomy", Title: "COPR anatomy: share of predictions (and accuracy) by level",
			Columns: []string{"lipr_share", "lipr_acc", "papr_share", "papr_acc", "gi_share", "gi_acc"},
			specs:   []runSpec{sys(config.SystemAttache)},
			row: func(ms []Metrics) []float64 {
				m := ms[0]
				return []float64{
					m.CoprSourceShare[0], m.CoprSourceAcc[0],
					m.CoprSourceShare[1], m.CoprSourceAcc[1],
					m.CoprSourceShare[2], m.CoprSourceAcc[2],
				}
			}},
		// The five memory systems side by side. On a recorded trace
		// (Harness.Trace) the suite is that one workload, so the table
		// reads as its own cycles, speedup, bytes moved and read latency.
		{ID: "systems", Title: "Systems compared (suite means)",
			Columns: []string{"cycles", "speedup", "bytes_moved", "read_latency"},
			specs: []runSpec{sys(config.SystemBaseline), sys(config.SystemMDCache),
				sys(config.SystemECC), sys(config.SystemAttache), sys(config.SystemIdeal)},
			rows: []string{"baseline", "mdcache", "ecc-meta", "attache", "ideal"},
			cells: func(m []Metrics, r int) []float64 {
				return []float64{float64(m[r].Cycles), speedup(m[r], m[0]), float64(m[r].BytesMoved), m[r].AvgReadLatency}
			}},
	}
}

// Lookup returns the experiment declared under id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// subRanking is Fig. 2's micro-stream on one channel: (a) baseline
// lockstep, (b) sub-ranking without compression (double burst from one
// sub-rank), (c) sub-ranking with compression (32-byte blocks alternating
// sub-ranks).
func subRanking(h *Harness, t *stats.Table) error {
	const n = 512
	type variant struct {
		name string
		mask func(i int) dram.SubRankMask
		dbl  bool
	}
	alternate := func(i int) dram.SubRankMask {
		if i%2 == 0 {
			return dram.SubRank0
		}
		return dram.SubRank1
	}
	variants := []variant{
		// (a) all chips lockstep: 64B per request over the full bus.
		{"(a) baseline lockstep", func(int) dram.SubRankMask { return dram.SubRankBoth }, false},
		// (b) sub-ranked but uncompressed: each 64B request occupies one
		// half-bus for twice as long; two requests proceed in parallel,
		// so throughput matches (a) while per-request latency doubles.
		{"(b) sub-rank, no compression", alternate, true},
		// (c) sub-ranked + compressed to 32B: same latency as (a), two
		// requests per burst slot.
		{"(c) sub-rank + compression", alternate, false},
	}
	var baseCycles float64
	for vi, v := range variants {
		// Idle latency: one cold read.
		eng := sim.NewEngine()
		ch := dram.NewChannel(eng, h.Cfg, 0)
		var idle sim.Time
		ch.Submit(&dram.Request{Loc: dram.Location{Row: 1}, SubRanks: v.mask(0), DoubleBurst: v.dbl,
			Done: func(now sim.Time) { idle = now }})
		eng.RunUntilDone(1e6)

		// Stream: n line-reads (each variant moves the same n*64 bytes;
		// variant (c) models every line compressed to one block).
		eng2 := sim.NewEngine()
		ch2 := dram.NewChannel(eng2, h.Cfg, 0)
		var last sim.Time
		for i := 0; i < n; i++ {
			ch2.Submit(&dram.Request{Loc: dram.Location{Row: 1 + i/128, Col: i % 128},
				SubRanks: v.mask(i), DoubleBurst: v.dbl,
				Done: func(now sim.Time) { last = now }})
		}
		eng2.RunUntilDone(1e7)
		if vi == 0 {
			baseCycles = float64(last)
		}
		t.AddRow(v.name, float64(idle), float64(last), baseCycles/float64(last))
	}
	return nil
}

// compressibility is Fig. 4: the share of each benchmark's synthesized
// lines that both real codecs together compress to 30 bytes.
func compressibility(h *Harness, t *stats.Table) error {
	eng := compress.NewEngine()
	const samples = 4000
	scratch := make([]byte, trace.LineSize)
	for _, p := range trace.Catalog() {
		dm := p.DataModel()
		rng := rand.New(rand.NewSource(7))
		comp := 0
		for i := 0; i < samples; i++ {
			addr := uint64(rng.Int63n(int64(p.FootprintBytes / 64)))
			if eng.Compressible(dm.LineInto(addr, scratch)) {
				comp++
			}
		}
		t.AddRow(p.Name, float64(comp)/samples*100)
	}
	t.AddMeanRow()
	return nil
}

// collisionCurve is Fig. 8: the probability of at least one CID
// collision versus the number of accesses to uncompressed lines,
// analytically and by Monte-Carlo through the real scrambler and BLEM
// classifier.
func collisionCurve(h *Harness, t *stats.Table) error {
	scr := scramble.New(0xFEEDFACE)
	line := make([]byte, 64)
	const trials = 64
	counts := map[int]int{}
	ns := []int{1024, 4096, 16384, 32768, 65536, 131072}
	maxN := ns[len(ns)-1]
	for trial := 0; trial < trials; trial++ {
		eTrial := blem.NewEngine(15, int64(trial)*131+7)
		firstHit := maxN + 1
		for i := 0; i < maxN; i++ {
			clear(line) // adversarially constant data...
			addr := uint64(trial*maxN + i)
			scr.Apply(addr, line) // ...made safe by scrambling
			if _, collision := eTrial.StoreUncompressed(addr, line); collision {
				firstHit = i + 1
				break
			}
		}
		for _, n := range ns {
			if firstHit <= n {
				counts[n]++
			}
		}
	}
	for _, n := range ns {
		analytic := 1 - math.Pow(1-blem.CollisionProbability(15), float64(n))
		t.AddRow(fmt.Sprintf("%d accesses", n), analytic, float64(counts[n])/trials)
	}
	return nil
}

// cidWidths is Table I: CID width against spare information bits and
// collision probability, analytic and Monte-Carlo measured.
func cidWidths(h *Harness, t *stats.Table) error {
	scr := scramble.New(0xABCD)
	for _, bits := range []int{15, 14, 13} {
		e := blem.NewEngine(bits, 99)
		const trials = 1 << 21
		collisions := 0
		line := make([]byte, 64)
		for i := 0; i < trials; i++ {
			clear(line)
			scr.Apply(uint64(i), line)
			if _, c := e.StoreUncompressed(uint64(i), line); c {
				collisions++
			}
		}
		t.AddRow(fmt.Sprintf("CID %d bits", bits),
			float64(15-bits),
			blem.CollisionProbability(bits)*100,
			float64(collisions)/trials*100)
	}
	return nil
}

// energyBreakdown splits each system's energy into activation, read,
// write, refresh and background, each the suite's total of that
// component over the suite's total energy.
func energyBreakdown(h *Harness, t *stats.Table) error {
	ms, err := h.sweep(fourSystems...)
	if err != nil {
		return err
	}
	for j, s := range fourSystems {
		var act, rd, wr, ref, bg, tot float64
		for _, row := range ms {
			m := row[j]
			act += m.EnergyActivateNJ
			rd += m.EnergyReadNJ
			wr += m.EnergyWriteNJ
			ref += m.EnergyRefreshNJ
			bg += m.EnergyBackgroundNJ
			tot += m.EnergyNJ
		}
		t.AddRow(s.kind.String(), act/tot, rd/tot, wr/tot, ref/tot, bg/tot)
	}
	return nil
}
