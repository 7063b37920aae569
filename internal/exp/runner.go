// Package exp is the experiment harness: it assembles full systems
// (cores -> shared LLC -> memory controller -> DRAM channels), runs the
// paper's workloads on each organization, and regenerates every table
// and figure of the evaluation section (see DESIGN.md §3 for the index).
package exp

import (
	"fmt"

	"attache/internal/cache"
	"attache/internal/config"
	"attache/internal/cpu"
	"attache/internal/dram"
	"attache/internal/memctrl"
	"attache/internal/sim"
	"attache/internal/trace"
)

// mixSliceLines is the per-core address slice for mixed workloads: large
// enough for the biggest catalog footprint.
const mixSliceLines = (256 << 20) / 64

// RunConfig describes one simulation run.
type RunConfig struct {
	Cfg  config.Config
	Kind config.SystemKind
	// Profiles holds one profile per core (rate mode repeats the same
	// profile; mixes differ per core). Unused, and not validated, when
	// Sources and LineModel both override them.
	Profiles []trace.Profile
	// AccessesPerCore is the number of memory references each core
	// issues.
	AccessesPerCore int64
	Seed            int64

	// Sources, when set, overrides the per-core synthetic generators
	// with externally supplied access streams (e.g. trace.FileTrace).
	// Must have one entry per core.
	Sources []trace.Source
	// LineModel, when set, overrides the data model derived from
	// Profiles — required when Sources replay recorded traces whose
	// data contents are unknown.
	LineModel memctrl.LineModel
}

// Metrics are the measurements one run produces.
type Metrics struct {
	Cycles       sim.Time
	Instructions int64
	IPC          float64

	DataReads, DataWrites   uint64
	MetaReads, MetaWrites   uint64
	RAReads, RAWrites       uint64
	CorrectionReads         uint64
	TotalRequests           uint64
	BytesMoved              uint64
	AvgReadLatency          float64 // controller submit -> data, CPU cycles
	BandwidthBytesPerKCycle float64
	EnergyNJ                float64
	// Energy components (nanojoules): dynamic split + background.
	EnergyActivateNJ, EnergyReadNJ, EnergyWriteNJ float64
	EnergyRefreshNJ, EnergyBackgroundNJ           float64
	CoprAccuracy                                  float64
	ECCAccuracy                                   float64
	// CoprSourceShare/Acc break COPR predictions down by the level
	// that answered (LiPR, PaPR, GI, default).
	CoprSourceShare    [4]float64
	CoprSourceAcc      [4]float64
	MDHitRate          float64
	CompressedReadFrac float64
	LLCMissRate        float64
	RowHitRate         float64 // DRAM row-buffer hit rate across channels
}

// regionModel routes line-model queries to the per-core data model owning
// that address slice (mixes run different data per core).
type regionModel struct {
	sliceLines uint64
	models     []*trace.DataModel
}

func (r regionModel) modelFor(a uint64) *trace.DataModel {
	i := int(a / r.sliceLines)
	if i >= len(r.models) {
		i = len(r.models) - 1
	}
	return r.models[i]
}

func (r regionModel) Compressible(a uint64) bool { return r.modelFor(a).Compressible(a) }

func (r regionModel) CIDCollides(a uint64, bits int) bool {
	return r.modelFor(a).CIDCollides(a, bits)
}

// LineInto satisfies check.DataModel so the differential oracle can run
// the functional Attaché flow on the same bytes the owning data model
// synthesizes for each slice.
func (r regionModel) LineInto(a uint64, buf []byte) []byte {
	return r.modelFor(a).LineInto(a, buf)
}

// RateMode builds the per-core profile list for a rate-mode run (every
// core runs the same benchmark, paper §V).
func RateMode(p trace.Profile, cores int) []trace.Profile {
	out := make([]trace.Profile, cores)
	for i := range out {
		out[i] = p
	}
	return out
}

// MixProfiles resolves a mix's benchmark names to profiles.
func MixProfiles(m trace.Mix) ([]trace.Profile, error) {
	out := make([]trace.Profile, len(m.PerCore))
	for i, n := range m.PerCore {
		p, err := trace.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// Run executes one simulation to completion and reports its metrics.
func Run(rc RunConfig) (Metrics, error) {
	if rc.AccessesPerCore <= 0 {
		return Metrics{}, fmt.Errorf("exp: accesses per core must be positive")
	}
	cfg := rc.Cfg
	ncores := cfg.CPU.Cores
	// Profiles supply each core's generator unless Sources does, and the
	// data model unless LineModel does: with both overridden they are
	// not read.
	if rc.Sources == nil || rc.LineModel == nil {
		if len(rc.Profiles) == 0 {
			return Metrics{}, fmt.Errorf("exp: no profiles")
		}
		if len(rc.Profiles) != ncores {
			return Metrics{}, fmt.Errorf("exp: %d profiles for %d cores", len(rc.Profiles), ncores)
		}
	}
	if rc.Sources != nil && len(rc.Sources) != ncores {
		return Metrics{}, fmt.Errorf("exp: %d sources for %d cores", len(rc.Sources), ncores)
	}
	eng := sim.NewEngine()

	// Data models: one per core slice. Identical profiles share a model
	// (rate mode); the slice size is uniform so the region router works
	// for both modes.
	var lm memctrl.LineModel
	if rc.LineModel != nil {
		lm = rc.LineModel
	} else {
		models := make([]*trace.DataModel, len(rc.Profiles))
		for i, p := range rc.Profiles {
			models[i] = p.DataModel()
		}
		lm = regionModel{sliceLines: mixSliceLines, models: models}
	}

	sys, err := memctrl.New(eng, cfg, rc.Kind, lm, rc.Seed)
	if err != nil {
		return Metrics{}, err
	}
	llc := cache.New(eng, sys, cfg.CPU.LLCBytes, cfg.CPU.LLCWays, cfg.CPU.LLCLatency)
	llc.EnableNextLinePrefetch(cfg.CPU.LLCPrefetch)

	coreCfg := cpu.Config{
		IssueWidth: cfg.CPU.IssueWidth,
		ROBSize:    int64(cfg.CPU.ROBSize),
		MSHRs:      cfg.CPU.MSHRs,
		Audit:      sys.Audit(), // nil when cfg.Check is off
	}
	gens := warmStart(rc, llc, sys.Audit())

	cores := make([]*cpu.Core, ncores)
	for i := range cores {
		cores[i] = cpu.NewCore(eng, i, coreCfg, gens[i], rc.AccessesPerCore, llc, nil)
		// Staggered starts break the lockstep of identical rate-mode
		// traces, which otherwise phase-locks with write draining.
		cores[i].StartAt(sim.Time(i) * 61)
	}

	maxEvents := max(uint64(rc.AccessesPerCore)*uint64(ncores)*400, 1_000_000)
	if !eng.RunUntilDone(maxEvents) {
		return Metrics{}, fmt.Errorf("exp: simulation exceeded %d events (deadlock or runaway)", maxEvents)
	}

	if cfg.Check >= config.CheckInvariants {
		// Event conservation: with the queue drained, every event that was
		// ever scheduled must have fired exactly once.
		if sch, fired := eng.Scheduled(), eng.Steps(); sch != fired {
			return Metrics{}, fmt.Errorf("exp: event conservation violated: %d events scheduled, %d fired", sch, fired)
		}
		if !sys.Drained() {
			return Metrics{}, fmt.Errorf("exp: channel queues not drained at end of run")
		}
		if err := sys.CheckErr(); err != nil {
			return Metrics{}, err
		}
	}

	var m Metrics
	var instr int64
	for _, c := range cores {
		done, ft := c.Finished()
		if !done {
			return Metrics{}, fmt.Errorf("exp: core did not finish")
		}
		if ft > m.Cycles {
			m.Cycles = ft
		}
		instr += c.Stats.Instructions
	}
	m.Instructions = instr
	if m.Cycles > 0 {
		m.IPC = float64(instr) / float64(m.Cycles)
	}

	st := &sys.Stats
	m.DataReads = st.DataReads.Value()
	m.DataWrites = st.DataWrites.Value()
	m.MetaReads = st.MetaReads.Value()
	m.MetaWrites = st.MetaWrites.Value()
	m.RAReads = st.RAReads.Value()
	m.RAWrites = st.RAWrites.Value()
	m.CorrectionReads = st.CorrectionReads.Value()
	m.TotalRequests = st.TotalRequests()
	m.AvgReadLatency = st.ReadLatency.Value()
	m.CompressedReadFrac = st.CompressedReads.Value()

	var rowHits, rowTotal uint64
	for _, ch := range sys.Channels() {
		m.BytesMoved += ch.Stats.BytesRead.Value() + ch.Stats.BytesWritten.Value()
		rowHits += ch.Stats.RowHits.Hits()
		rowTotal += ch.Stats.RowHits.Total()
	}
	if rowTotal > 0 {
		m.RowHitRate = float64(rowHits) / float64(rowTotal)
	}
	if m.Cycles > 0 {
		m.BandwidthBytesPerKCycle = float64(m.BytesMoved) / float64(m.Cycles) * 1000
	}
	e := sys.TotalEnergy()
	ranks := cfg.DRAM.Channels * cfg.DRAM.RanksPerCh
	m.EnergyNJ = e.TotalNJ(m.Cycles, cfg.CPU.ClockGHz, ranks)
	m.EnergyActivateNJ, m.EnergyReadNJ, m.EnergyWriteNJ, m.EnergyRefreshNJ = e.Components()
	m.EnergyBackgroundNJ = dram.BackgroundNJ(m.Cycles, cfg.CPU.ClockGHz, ranks)

	if p := sys.Predictor(); p != nil {
		m.CoprAccuracy = p.Accuracy()
		total := p.Stats.Overall.Total()
		for i := range m.CoprSourceShare {
			r := p.Stats.BySource[i]
			if total > 0 {
				m.CoprSourceShare[i] = float64(r.Total()) / float64(total)
			}
			m.CoprSourceAcc[i] = r.Value()
		}
	}
	m.ECCAccuracy = sys.Stats.ECCPrediction.Value()
	if mc := sys.MetadataCache(); mc != nil {
		m.MDHitRate = mc.Stats.HitRate()
	}
	if llc.Stats.Accesses.Value() > 0 {
		m.LLCMissRate = 1 - llc.Stats.HitRate()
	}
	return m, nil
}
