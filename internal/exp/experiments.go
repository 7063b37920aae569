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
// 1/11/15 reuse slices of it) pay for them once. The memo cache is
// concurrency-safe with singleflight semantics: two goroutines asking for
// the same run execute it exactly once. Prefetch fans the planned runs of
// a set of experiments across Parallelism workers; results are identical
// to serial execution because every run is an independent deterministic
// simulation and aggregation always happens in experiment order.
type Harness struct {
	Cfg             config.Config
	AccessesPerCore int64
	Seeds           []int64
	// Progress, when set, receives one line per completed run. Calls are
	// serialized by an internal mutex so concurrent runs do not interleave
	// mid-line.
	Progress func(msg string)
	// Parallelism bounds how many simulations Prefetch executes
	// concurrently. Values <= 0 fall back to runtime.GOMAXPROCS(0).
	// Results do not depend on it.
	Parallelism int

	mu         sync.Mutex // guards cache and inflight
	cache      map[string]cachedRun
	inflight   map[string]*inflightRun
	progressMu sync.Mutex
}

// cachedRun memoizes one run's outcome; errors are cached too, so a failed
// simulation is not retried by every figure that shares it.
type cachedRun struct {
	m   Metrics
	err error
}

// inflightRun is the singleflight rendezvous for one executing run.
type inflightRun struct {
	done chan struct{} // closed when m/err are final
	m    Metrics
	err  error
}

// NewHarness builds a harness; scale multiplies the default per-core
// access count (12000).
func NewHarness(scale float64) *Harness {
	n := int64(12000 * scale)
	if n < 500 {
		n = 500
	}
	return &Harness{
		Cfg:             config.Default(),
		AccessesPerCore: n,
		Seeds:           []int64{42},
		Parallelism:     runtime.GOMAXPROCS(0),
		cache:           map[string]cachedRun{},
		inflight:        map[string]*inflightRun{},
	}
}

// Workloads lists every workload of the evaluation: the catalog plus the
// two mixes.
func (h *Harness) Workloads() []string {
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

// runKey is the memoization identity of one simulation. The config is not
// part of the key: variant must uniquely describe every non-default
// configuration, which the planner in parallel.go relies on too.
func runKey(name string, kind config.SystemKind, variant string) string {
	return fmt.Sprintf("%s|%v|%s", name, kind, variant)
}

// runCached executes (or recalls) one simulation, averaging over the
// harness seeds. variant distinguishes non-default configurations.
// It is safe for concurrent use: the first caller for a key executes the
// run, any later caller blocks until that result is final (singleflight).
func (h *Harness) runCached(name string, kind config.SystemKind, variant string, cfg config.Config) (Metrics, error) {
	key := runKey(name, kind, variant)
	h.mu.Lock()
	if h.cache == nil {
		h.cache = map[string]cachedRun{}
	}
	if h.inflight == nil {
		h.inflight = map[string]*inflightRun{}
	}
	if c, ok := h.cache[key]; ok {
		h.mu.Unlock()
		return c.m, c.err
	}
	if fl, ok := h.inflight[key]; ok {
		h.mu.Unlock()
		<-fl.done
		return fl.m, fl.err
	}
	fl := &inflightRun{done: make(chan struct{})}
	h.inflight[key] = fl
	h.mu.Unlock()

	fl.m, fl.err = h.executeRun(key, name, kind, cfg)

	h.mu.Lock()
	h.cache[key] = cachedRun{m: fl.m, err: fl.err}
	delete(h.inflight, key)
	h.mu.Unlock()
	close(fl.done)

	if fl.err == nil {
		h.progress(fmt.Sprintf("ran %-28s cycles=%d", key, fl.m.Cycles))
	}
	return fl.m, fl.err
}

// executeRun performs the actual simulations for one cache key.
func (h *Harness) executeRun(key, name string, kind config.SystemKind, cfg config.Config) (Metrics, error) {
	profs, err := h.profilesFor(name)
	if err != nil {
		return Metrics{}, err
	}
	var acc Metrics
	for _, seed := range h.Seeds {
		m, err := Run(RunConfig{
			Cfg:             cfg,
			Kind:            kind,
			Profiles:        profs,
			AccessesPerCore: h.AccessesPerCore,
			Seed:            seed,
		})
		if err != nil {
			return Metrics{}, fmt.Errorf("run %s: %w", key, err)
		}
		stats.Add(&acc, m)
	}
	stats.Scale(&acc, 1/float64(len(h.Seeds)))
	return acc, nil
}

// progress forwards one line to the Progress callback under a mutex, so
// parallel runs never interleave output mid-line.
func (h *Harness) progress(msg string) {
	if h.Progress == nil {
		return
	}
	h.progressMu.Lock()
	defer h.progressMu.Unlock()
	h.Progress(msg)
}

func (h *Harness) run(name string, kind config.SystemKind) (Metrics, error) {
	return h.runCached(name, kind, "", h.Cfg)
}

// Fig1 reproduces Figure 1: per benchmark, the proportion of compressed
// memory blocks and the extra memory traffic caused by metadata accesses
// with a 1 MB Metadata-Cache.
func (h *Harness) Fig1() (*stats.Table, error) {
	t := stats.NewTable("Fig 1: metadata traffic overhead (1MB metadata cache)",
		"compressed_pct", "extra_traffic_pct")
	for _, w := range h.Workloads() {
		m, err := h.run(w, config.SystemMDCache)
		if err != nil {
			return nil, err
		}
		data := float64(m.DataReads + m.DataWrites)
		meta := float64(m.MetaReads + m.MetaWrites)
		t.AddRow(w, m.CompressedReadFrac*100, meta/data*100)
	}
	t.AddMeanRow()
	return t, nil
}

// Fig2 reproduces Figure 2's latency/bandwidth comparison with a
// micro-stream on one channel: (a) baseline lockstep, (b) sub-ranking
// without compression (double burst from one sub-rank), (c) sub-ranking
// with compression (32-byte blocks alternating sub-ranks).
func (h *Harness) Fig2() (*stats.Table, error) {
	t := stats.NewTable("Fig 2: sub-ranking latency/bandwidth micro-comparison",
		"idle_latency_cycles", "stream_cycles", "relative_bandwidth")
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
	return t, nil
}

// Fig4 reproduces Figure 4: the percentage of cachelines compressible to
// 30 bytes, measured by running both real codecs over each benchmark's
// synthesized data.
func (h *Harness) Fig4() (*stats.Table, error) {
	t := stats.NewTable("Fig 4: % of 64B lines compressible to 30B", "compressible_pct")
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
	return t, nil
}

// Fig5 reproduces Figure 5: metadata-cache hit rate and resulting speedup
// as the cache grows from 64 KB to 1 MB (suite averages).
func (h *Harness) Fig5() (*stats.Table, error) {
	t := stats.NewTable("Fig 5: metadata-cache size sweep (suite averages)",
		"hit_rate", "speedup")
	for _, size := range mdcacheSweepSizes {
		cfg := h.Cfg
		cfg.MDCache.Bytes = size
		var hit, speedup float64
		n := 0
		for _, w := range h.Workloads() {
			base, err := h.run(w, config.SystemBaseline)
			if err != nil {
				return nil, err
			}
			md, err := h.runCached(w, config.SystemMDCache, mdcacheSizeVariant(size), cfg)
			if err != nil {
				return nil, err
			}
			hit += md.MDHitRate
			speedup += float64(base.Cycles) / float64(md.Cycles)
			n++
		}
		t.AddRow(fmt.Sprintf("%dKB", size>>10), hit/float64(n), speedup/float64(n))
	}
	return t, nil
}

// Fig8 reproduces Figure 8: probability of at least one CID collision
// versus the number of accesses to uncompressed lines, analytically and
// by Monte-Carlo through the real scrambler + BLEM classifier.
func (h *Harness) Fig8() (*stats.Table, error) {
	t := stats.NewTable("Fig 8: CID collision probability vs accesses (15-bit CID)",
		"analytic_p", "measured_p")
	e := blem.NewEngine(15, 2024)
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
			for j := range line {
				line[j] = 0 // adversarially constant data...
			}
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
	_ = e
	for _, n := range ns {
		analytic := 1 - math.Pow(1-blem.CollisionProbability(15), float64(n))
		t.AddRow(fmt.Sprintf("%d accesses", n), analytic, float64(counts[n])/trials)
	}
	return t, nil
}

// Table1 reproduces Table I: CID width versus spare information bits and
// collision probability (analytic and Monte-Carlo measured).
func (h *Harness) Table1() (*stats.Table, error) {
	t := stats.NewTable("Table I: extending CID to store additional information",
		"info_bits", "analytic_collision_pct", "measured_collision_pct")
	scr := scramble.New(0xABCD)
	for _, bits := range []int{15, 14, 13} {
		e := blem.NewEngine(bits, 99)
		const trials = 1 << 21
		collisions := 0
		line := make([]byte, 64)
		for i := 0; i < trials; i++ {
			for j := range line {
				line[j] = 0
			}
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
	return t, nil
}

// Fig11 reproduces Figure 11: COPR prediction accuracy per benchmark.
func (h *Harness) Fig11() (*stats.Table, error) {
	t := stats.NewTable("Fig 11: COPR prediction accuracy", "accuracy")
	for _, w := range h.Workloads() {
		m, err := h.run(w, config.SystemAttache)
		if err != nil {
			return nil, err
		}
		t.AddRow(w, m.CoprAccuracy)
	}
	t.AddMeanRow()
	return t, nil
}

// Fig12 reproduces Figure 12: speedup of the Metadata-Cache system,
// Attaché, and the ideal system, normalized to the uncompressed baseline.
func (h *Harness) Fig12() (*stats.Table, error) {
	t := stats.NewTable("Fig 12: speedup normalized to baseline",
		"mdcache", "attache", "ideal")
	for _, w := range h.Workloads() {
		base, err := h.run(w, config.SystemBaseline)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 3)
		for _, k := range []config.SystemKind{config.SystemMDCache, config.SystemAttache, config.SystemIdeal} {
			m, err := h.run(w, k)
			if err != nil {
				return nil, err
			}
			row = append(row, float64(base.Cycles)/float64(m.Cycles))
		}
		t.AddRow(w, row...)
	}
	t.AddMeanRow()
	return t, nil
}

// Fig13 reproduces Figure 13: energy consumption normalized to baseline.
func (h *Harness) Fig13() (*stats.Table, error) {
	t := stats.NewTable("Fig 13: energy normalized to baseline",
		"mdcache", "attache", "ideal")
	for _, w := range h.Workloads() {
		base, err := h.run(w, config.SystemBaseline)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 3)
		for _, k := range []config.SystemKind{config.SystemMDCache, config.SystemAttache, config.SystemIdeal} {
			m, err := h.run(w, k)
			if err != nil {
				return nil, err
			}
			row = append(row, m.EnergyNJ/base.EnergyNJ)
		}
		t.AddRow(w, row...)
	}
	t.AddMeanRow()
	return t, nil
}

// Fig14 reproduces Figure 14: memory bandwidth improvement (a) and
// average memory latency (b), per benchmark, normalized to the baseline.
// "Useful bandwidth" is work per cycle: the systems move the same
// payload, so the payload rate ratio is the inverse cycle ratio.
func (h *Harness) Fig14() (*stats.Table, error) {
	t := stats.NewTable("Fig 14: useful bandwidth (a) and memory latency (b), normalized to baseline",
		"bw_mdcache", "bw_attache", "bw_ideal", "lat_mdcache", "lat_attache", "lat_ideal")
	kinds := []config.SystemKind{config.SystemMDCache, config.SystemAttache, config.SystemIdeal}
	for _, w := range h.Workloads() {
		base, err := h.run(w, config.SystemBaseline)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 6)
		var lats []float64
		for _, k := range kinds {
			m, err := h.run(w, k)
			if err != nil {
				return nil, err
			}
			row = append(row, float64(base.Cycles)/float64(m.Cycles))
			lats = append(lats, m.AvgReadLatency/base.AvgReadLatency)
		}
		t.AddRow(w, append(row, lats...)...)
	}
	t.AddMeanRow()
	return t, nil
}

// Fig15 reproduces Figure 15: number of memory requests in the
// Metadata-Cache system normalized to its own data requests, split into
// reads and writes.
func (h *Harness) Fig15() (*stats.Table, error) {
	t := stats.NewTable("Fig 15: normalized requests with metadata caching",
		"norm_reads", "norm_writes", "norm_total")
	for _, w := range h.Workloads() {
		m, err := h.run(w, config.SystemMDCache)
		if err != nil {
			return nil, err
		}
		dataReads := float64(m.DataReads + m.CorrectionReads)
		dataWrites := float64(m.DataWrites)
		t.AddRow(w,
			(dataReads+float64(m.MetaReads))/dataReads,
			(dataWrites+float64(m.MetaWrites))/dataWrites,
			(dataReads+dataWrites+float64(m.MetaReads+m.MetaWrites))/(dataReads+dataWrites))
	}
	t.AddMeanRow()
	return t, nil
}

// Fig16 reproduces Figure 16: 1MB metadata-cache hit rate under LRU,
// DRRIP, and SHiP replacement.
func (h *Harness) Fig16() (*stats.Table, error) {
	t := stats.NewTable("Fig 16: metadata-cache hit rate by replacement policy",
		"lru", "drrip", "ship")
	for _, w := range h.Workloads() {
		row := make([]float64, 0, 3)
		for _, pol := range mdcachePolicies {
			cfg := h.Cfg
			cfg.MDCache.Policy = pol
			m, err := h.runCached(w, config.SystemMDCache, mdcachePolicyVariant(pol), cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, m.MDHitRate)
		}
		t.AddRow(w, row...)
	}
	t.AddMeanRow()
	return t, nil
}

// Fig17 reproduces Figure 17: Attaché speedup with different COPR
// component combinations: PaPR alone, PaPR + GI, and the full predictor
// (adding LiPR, which matters for the mixed workloads).
func (h *Harness) Fig17() (*stats.Table, error) {
	t := stats.NewTable("Fig 17: speedup by COPR component mix",
		"papr_only", "papr_gi", "full")
	for _, w := range h.Workloads() {
		base, err := h.run(w, config.SystemBaseline)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 3)
		for _, v := range coprVariants {
			m, err := h.runCached(w, config.SystemAttache, v.name, v.apply(h.Cfg))
			if err != nil {
				return nil, err
			}
			row = append(row, float64(base.Cycles)/float64(m.Cycles))
		}
		t.AddRow(w, row...)
	}
	t.AddMeanRow()
	return t, nil
}

// EnergyBreakdown is an extension experiment: where each system's energy
// goes (activation / read / write / refresh / background), as suite-mean
// fractions. It explains Fig. 13: compression saves dynamic transfer and
// activation energy directly, and background energy through shorter
// runtime.
func (h *Harness) EnergyBreakdown() (*stats.Table, error) {
	t := stats.NewTable("Energy breakdown by component (suite-mean fractions)",
		"activate", "read", "write", "refresh", "background")
	kinds := []config.SystemKind{config.SystemBaseline, config.SystemMDCache, config.SystemAttache, config.SystemIdeal}
	for _, k := range kinds {
		var act, rd, wr, ref, bg, tot float64
		for _, w := range h.Workloads() {
			m, err := h.run(w, k)
			if err != nil {
				return nil, err
			}
			act += m.EnergyActivateNJ
			rd += m.EnergyReadNJ
			wr += m.EnergyWriteNJ
			ref += m.EnergyRefreshNJ
			bg += m.EnergyBackgroundNJ
			tot += m.EnergyNJ
		}
		t.AddRow(k.String(), act/tot, rd/tot, wr/tot, ref/tot, bg/tot)
	}
	return t, nil
}

// Predictors is an extension experiment isolating COPR's contribution:
// it compares Attaché against the Deb et al. alternative (§VII-A) where
// metadata rides in ECC bits and the pre-read guess comes from a simple
// last-outcome predictor with the same storage budget. Both systems have
// metadata-free reads, so the remaining gap is pure predictor quality.
func (h *Harness) Predictors() (*stats.Table, error) {
	t := stats.NewTable("COPR vs last-outcome predictor (ECC metadata, Deb et al.)",
		"ecc_speedup", "attache_speedup", "ecc_accuracy", "copr_accuracy")
	for _, w := range h.Workloads() {
		base, err := h.run(w, config.SystemBaseline)
		if err != nil {
			return nil, err
		}
		ecc, err := h.run(w, config.SystemECC)
		if err != nil {
			return nil, err
		}
		att, err := h.run(w, config.SystemAttache)
		if err != nil {
			return nil, err
		}
		t.AddRow(w,
			float64(base.Cycles)/float64(ecc.Cycles),
			float64(base.Cycles)/float64(att.Cycles),
			ecc.ECCAccuracy,
			att.CoprAccuracy)
	}
	t.AddMeanRow()
	return t, nil
}

// CoprAnatomy is an extension experiment: which COPR level answers each
// prediction and how accurate each level is, per workload. It shows the
// division of labor Fig. 10 implies: LiPR for observed lines, PaPR for
// page-resident pages, GI for cold pages.
func (h *Harness) CoprAnatomy() (*stats.Table, error) {
	t := stats.NewTable("COPR anatomy: share of predictions (and accuracy) by level",
		"lipr_share", "lipr_acc", "papr_share", "papr_acc", "gi_share", "gi_acc")
	for _, w := range h.Workloads() {
		m, err := h.run(w, config.SystemAttache)
		if err != nil {
			return nil, err
		}
		t.AddRow(w,
			m.CoprSourceShare[0], m.CoprSourceAcc[0],
			m.CoprSourceShare[1], m.CoprSourceAcc[1],
			m.CoprSourceShare[2], m.CoprSourceAcc[2])
	}
	t.AddMeanRow()
	return t, nil
}

// Experiment names in paper order.
var experimentOrder = []string{
	"fig1", "fig2", "fig4", "fig5", "fig8", "tab1",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	"compare", "energy", "predictors", "copr-anatomy",
}

// Experiments returns the experiment registry: id -> runner.
func (h *Harness) Experiments() (order []string, runners map[string]func() (*stats.Table, error)) {
	return experimentOrder, map[string]func() (*stats.Table, error){
		"fig1":         h.Fig1,
		"fig2":         h.Fig2,
		"fig4":         h.Fig4,
		"fig5":         h.Fig5,
		"fig8":         h.Fig8,
		"tab1":         h.Table1,
		"fig11":        h.Fig11,
		"fig12":        h.Fig12,
		"fig13":        h.Fig13,
		"fig14":        h.Fig14,
		"fig15":        h.Fig15,
		"fig16":        h.Fig16,
		"fig17":        h.Fig17,
		"compare":      h.Compare,
		"energy":       h.EnergyBreakdown,
		"predictors":   h.Predictors,
		"copr-anatomy": h.CoprAnatomy,
	}
}
