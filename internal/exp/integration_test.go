package exp

import (
	"bytes"
	"testing"

	"attache/internal/compress"
	"attache/internal/config"
	"attache/internal/core"
	"attache/internal/trace"
)

// TestFunctionalAndPerformanceModelsAgree cross-checks the two layers of
// the library: the performance simulator classifies lines through the
// workload DataModel, while the functional framework actually compresses,
// scrambles, and blends the same bytes. For every sampled line the two
// must agree on compressibility, and the functional path must round-trip.
func TestFunctionalAndPerformanceModelsAgree(t *testing.T) {
	f, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lbm", "mcf", "RAND", "gcc", "libquantum"} {
		p, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dm := p.DataModel()
		gen := trace.NewGenerator(p, 3, 0)
		for i := 0; i < 500; i++ {
			a := gen.Next()
			line := dm.LineInto(a.LineAddr, nil)
			st, _, err := f.Store(a.LineAddr, line)
			if err != nil {
				t.Fatal(err)
			}
			if st.Compressed != dm.Compressible(a.LineAddr) {
				t.Fatalf("%s line %d: framework says compressed=%v, model says %v",
					name, a.LineAddr, st.Compressed, dm.Compressible(a.LineAddr))
			}
			got, _, err := f.Load(a.LineAddr, st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, line) {
				t.Fatalf("%s line %d: functional round trip mismatch", name, a.LineAddr)
			}
		}
	}
}

// TestTrafficConservation checks request accounting across the stack:
// every system must issue exactly one data read per LLC fill, and the
// byte traffic ordering baseline >= attache >= ideal must hold for a
// compressible workload.
func TestTrafficConservation(t *testing.T) {
	p, err := trace.ByName("zeusmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	results := map[config.SystemKind]Metrics{}
	for _, k := range []config.SystemKind{config.SystemBaseline, config.SystemAttache, config.SystemIdeal} {
		m, err := Run(RunConfig{
			Cfg: cfg, Kind: k,
			Profiles:        RateMode(p, cfg.CPU.Cores),
			AccessesPerCore: 2500, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		results[k] = m
	}
	base, att, ideal := results[config.SystemBaseline], results[config.SystemAttache], results[config.SystemIdeal]

	// Same trace -> same LLC behaviour -> near-identical data-request
	// counts (timing shifts whether a racing pair of misses coalesces in
	// the MSHRs, so allow a handful of fills of slack).
	near := func(a, b uint64) bool {
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		return float64(d) <= 0.005*float64(a)
	}
	if !near(base.DataReads, att.DataReads) || !near(base.DataReads, ideal.DataReads) {
		t.Fatalf("data reads diverge: %d / %d / %d", base.DataReads, att.DataReads, ideal.DataReads)
	}
	if !near(base.DataWrites, att.DataWrites) || !near(base.DataWrites, ideal.DataWrites) {
		t.Fatalf("data writes diverge: %d / %d / %d", base.DataWrites, att.DataWrites, ideal.DataWrites)
	}

	// Bytes: compression can only reduce traffic; corrections can only
	// add back at most what prediction saved.
	if !(ideal.BytesMoved <= att.BytesMoved) {
		t.Fatalf("ideal moved %d > attache %d", ideal.BytesMoved, att.BytesMoved)
	}
	if !(att.BytesMoved < base.BytesMoved) {
		t.Fatalf("attache moved %d >= baseline %d on 68%%-compressible workload",
			att.BytesMoved, base.BytesMoved)
	}

	// Baseline issues nothing but data requests.
	if base.TotalRequests != base.DataReads+base.DataWrites {
		t.Fatal("baseline issued non-data requests")
	}
	// Ideal likewise (oracle metadata is free).
	if ideal.TotalRequests != ideal.DataReads+ideal.DataWrites {
		t.Fatal("ideal issued non-data requests")
	}
	// Attaché extras are exactly corrections + RA traffic.
	extras := att.TotalRequests - att.DataReads - att.DataWrites
	if extras != att.CorrectionReads+att.RAReads+att.RAWrites {
		t.Fatalf("attache extras %d != corrections %d + RA %d",
			extras, att.CorrectionReads, att.RAReads+att.RAWrites)
	}
}

// TestCompressedReadFracMatchesDataModel: the fraction of compressed
// reads observed by the controller must match the workload's target
// compressibility (the controller sees the same line distribution the
// data model defines).
func TestCompressedReadFracMatchesDataModel(t *testing.T) {
	for _, name := range []string{"lbm", "libquantum", "gcc"} {
		p, _ := trace.ByName(name)
		cfg := config.Default()
		m, err := Run(RunConfig{
			Cfg: cfg, Kind: config.SystemIdeal,
			Profiles:        RateMode(p, cfg.CPU.Cores),
			AccessesPerCore: 2500, Seed: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		diff := m.CompressedReadFrac - p.CompressibleFrac
		if diff < -0.1 || diff > 0.1 {
			t.Errorf("%s: compressed read frac %.3f vs profile %.3f",
				name, m.CompressedReadFrac, p.CompressibleFrac)
		}
	}
}

// TestRareRATrafficAtPaperRate: with a 15-bit CID, Replacement Area
// traffic must be a vanishing fraction of requests (the paper's 0.003%
// claim, allowing Monte-Carlo slack at simulation scale).
func TestRareRATrafficAtPaperRate(t *testing.T) {
	p, _ := trace.ByName("libquantum") // almost everything uncompressed: worst case for collisions
	cfg := config.Default()
	m, err := Run(RunConfig{
		Cfg: cfg, Kind: config.SystemAttache,
		Profiles:        RateMode(p, cfg.CPU.Cores),
		AccessesPerCore: 4000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ra := float64(m.RAReads + m.RAWrites)
	frac := ra / float64(m.TotalRequests)
	if frac > 0.001 {
		t.Fatalf("RA traffic fraction %.5f, want ~0.00003", frac)
	}
}

// TestCompressionEngineAgreesWithPackedStorage: everything the engine
// calls compressible must pack (with its algorithm tag) into the 30-byte
// payload budget BLEM reserves beside the header — across every
// workload's data distribution.
func TestCompressionEngineAgreesWithPackedStorage(t *testing.T) {
	e := compress.NewEngine()
	for _, p := range trace.Catalog() {
		dm := p.DataModel()
		for addr := uint64(0); addr < 300; addr++ {
			line := dm.LineInto(addr, nil)
			c := e.Compress(line)
			if c.Algo == compress.AlgoNone {
				continue
			}
			if got := len(c.Pack()); got > 30 {
				t.Fatalf("%s line %d: packed %d bytes > 30", p.Name, addr, got)
			}
		}
	}
}

// TestMixSlicesIsolated: in a mixed workload, each core's traffic must
// stay inside its own address slice so per-core data models never alias.
func TestMixSlicesIsolated(t *testing.T) {
	mix := trace.Mixes()[1]
	profs, err := MixProfiles(mix)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profs {
		gen := trace.NewGeneratorAt(p, 9, uint64(i)*mixSliceLines)
		lo := uint64(i) * mixSliceLines
		hi := lo + mixSliceLines
		for j := 0; j < 1000; j++ {
			a := gen.Next().LineAddr
			if a < lo || a >= hi {
				t.Fatalf("core %d (%s) escaped its slice: %d not in [%d,%d)", i, p.Name, a, lo, hi)
			}
		}
	}
}
