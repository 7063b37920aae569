package memctrl

import (
	"testing"

	"attache/internal/config"
	"attache/internal/sim"
)

// stubModel gives deterministic per-address compressibility for tests.
type stubModel struct {
	compressible func(uint64) bool
	collides     func(uint64) bool
}

func (m stubModel) Compressible(a uint64) bool { return m.compressible(a) }
func (m stubModel) CIDCollides(a uint64, bits int) bool {
	if m.collides == nil {
		return false
	}
	return m.collides(a)
}

func allCompressible() stubModel {
	return stubModel{compressible: func(uint64) bool { return true }}
}

func noneCompressible() stubModel {
	return stubModel{compressible: func(uint64) bool { return false }}
}

func newSystem(t *testing.T, kind config.SystemKind, m LineModel) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	s, err := New(eng, config.Default(), kind, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

func readSync(t *testing.T, eng *sim.Engine, s *System, addr uint64) sim.Time {
	t.Helper()
	var finish sim.Time = -1
	s.Read(addr, func(now sim.Time) { finish = now })
	if !eng.RunUntilDone(1_000_000) {
		t.Fatal("engine did not drain")
	}
	if finish < 0 {
		t.Fatal("read never completed")
	}
	return finish
}

func TestBaselineReadUses64Bytes(t *testing.T) {
	eng, s := newSystem(t, config.SystemBaseline, allCompressible())
	readSync(t, eng, s, 1000)
	var bytes uint64
	for _, c := range s.Channels() {
		bytes += c.Stats.BytesRead.Value()
	}
	if bytes != 64 {
		t.Fatalf("baseline read moved %d bytes, want 64", bytes)
	}
	if s.Stats.TotalRequests() != 1 {
		t.Fatalf("requests = %d, want 1", s.Stats.TotalRequests())
	}
}

func TestIdealCompressedReadUses32Bytes(t *testing.T) {
	eng, s := newSystem(t, config.SystemIdeal, allCompressible())
	readSync(t, eng, s, 1000)
	var bytes uint64
	for _, c := range s.Channels() {
		bytes += c.Stats.BytesRead.Value()
	}
	if bytes != 32 {
		t.Fatalf("ideal compressed read moved %d bytes, want 32", bytes)
	}
}

func TestIdealUncompressedReadUses64Bytes(t *testing.T) {
	eng, s := newSystem(t, config.SystemIdeal, noneCompressible())
	readSync(t, eng, s, 1000)
	var bytes uint64
	for _, c := range s.Channels() {
		bytes += c.Stats.BytesRead.Value()
	}
	if bytes != 64 {
		t.Fatalf("ideal uncompressed read moved %d bytes, want 64", bytes)
	}
}

func TestAttacheCorrectPredictionSingleBlock(t *testing.T) {
	eng, s := newSystem(t, config.SystemAttache, allCompressible())
	// Warm COPR on the page via reads (updates happen at completion).
	for i := uint64(0); i < 8; i++ {
		readSync(t, eng, s, 1000+i)
	}
	before := bytesRead(s)
	readSync(t, eng, s, 1012)
	moved := bytesRead(s) - before
	if moved != 32 {
		t.Fatalf("predicted-compressed read moved %d bytes, want 32", moved)
	}
	if s.Stats.CorrectionReads.Value() != 0 {
		t.Fatal("no corrections expected on correct predictions")
	}
}

func TestAttacheMispredictionIssuesCorrection(t *testing.T) {
	// Model: all lines in the warm page compressible, the probe line not.
	probe := uint64(2000)
	m := stubModel{compressible: func(a uint64) bool { return a != probe }}
	eng, s := newSystem(t, config.SystemAttache, m)
	for i := uint64(0); i < 8; i++ {
		readSync(t, eng, s, probe-8+i) // same page, warms "compressible"
	}
	before := bytesRead(s)
	readSync(t, eng, s, probe)
	moved := bytesRead(s) - before
	if s.Stats.CorrectionReads.Value() != 1 {
		t.Fatalf("corrections = %d, want 1", s.Stats.CorrectionReads.Value())
	}
	if moved != 64 {
		t.Fatalf("mispredicted read moved %d bytes, want 64 (32+32)", moved)
	}
}

func TestAttacheCollisionReadsRA(t *testing.T) {
	m := stubModel{
		compressible: func(uint64) bool { return false },
		collides:     func(a uint64) bool { return a == 555 },
	}
	eng, s := newSystem(t, config.SystemAttache, m)
	// Cold predictor defaults to uncompressed: both halves fetched, then
	// the RA read gates completion.
	readSync(t, eng, s, 555)
	if s.Stats.RAReads.Value() != 1 {
		t.Fatalf("RA reads = %d, want 1", s.Stats.RAReads.Value())
	}
}

func TestAttacheCollisionWritePostsRAWrite(t *testing.T) {
	m := stubModel{
		compressible: func(uint64) bool { return false },
		collides:     func(a uint64) bool { return a == 700 },
	}
	eng, s := newSystem(t, config.SystemAttache, m)
	s.Write(700)
	s.Write(701) // no collision
	eng.RunUntilDone(1_000_000)
	if s.Stats.RAWrites.Value() != 1 {
		t.Fatalf("RA writes = %d, want 1", s.Stats.RAWrites.Value())
	}
	if s.Stats.DataWrites.Value() != 2 {
		t.Fatalf("data writes = %d, want 2", s.Stats.DataWrites.Value())
	}
}

func TestMDCacheMissFetchesMetadataFirst(t *testing.T) {
	eng, s := newSystem(t, config.SystemMDCache, allCompressible())
	lat1 := readSync(t, eng, s, 3000)
	if s.Stats.MetaReads.Value() != 1 {
		t.Fatalf("meta reads = %d, want 1 (cold cache)", s.Stats.MetaReads.Value())
	}
	// Second read to the same row hits the metadata cache: no extra
	// metadata request, and lower latency.
	start := eng.Now()
	var fin sim.Time
	s.Read(3001, func(now sim.Time) { fin = now })
	eng.RunUntilDone(1_000_000)
	if s.Stats.MetaReads.Value() != 1 {
		t.Fatal("metadata hit should not refetch")
	}
	if fin-start >= lat1 {
		t.Fatalf("metadata-hit read (%d) not faster than cold read (%d)", fin-start, lat1)
	}
}

func TestMDCacheDirtyEvictionWritesBack(t *testing.T) {
	cfg := config.Default()
	cfg.MDCache.Bytes = 64 * 4 // 4 metadata lines: tiny, forces evictions
	cfg.MDCache.Ways = 4
	eng := sim.NewEngine()
	s, err := New(eng, cfg, config.SystemMDCache, allCompressible(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the cache with writes to distinct rows, then overflow it.
	for i := uint64(0); i < 8; i++ {
		s.Write(i * 128 * 64) // distinct metadata keys
	}
	eng.RunUntilDone(1_000_000)
	if s.Stats.MetaWrites.Value() == 0 {
		t.Fatal("expected metadata writebacks from dirty evictions")
	}
}

func TestMDCacheNeverMispredicts(t *testing.T) {
	eng, s := newSystem(t, config.SystemMDCache, noneCompressible())
	for i := uint64(0); i < 50; i++ {
		readSync(t, eng, s, i)
	}
	if s.Stats.CorrectionReads.Value() != 0 {
		t.Fatal("metadata is ground truth; no corrections possible")
	}
}

func TestAttacheLatencyIncludesPredictorLookup(t *testing.T) {
	engA, a := newSystem(t, config.SystemAttache, noneCompressible())
	latA := readSync(t, engA, a, 42)
	engB, b := newSystem(t, config.SystemBaseline, noneCompressible())
	latB := readSync(t, engB, b, 42)
	if latA != latB+config.Default().Attache.PredictorLatency {
		t.Fatalf("attache cold read %d vs baseline %d: want +%d predictor cycles",
			latA, latB, config.Default().Attache.PredictorLatency)
	}
}

func TestSystemKindAccessors(t *testing.T) {
	_, a := newSystem(t, config.SystemAttache, allCompressible())
	if a.kind != config.SystemAttache || a.Predictor() == nil || a.MetadataCache() != nil {
		t.Fatal("attache accessors wrong")
	}
	_, m := newSystem(t, config.SystemMDCache, allCompressible())
	if m.Predictor() != nil || m.MetadataCache() == nil {
		t.Fatal("mdcache accessors wrong")
	}
}

func TestInvalidPolicyRejected(t *testing.T) {
	cfg := config.Default()
	cfg.MDCache.Policy = "bogus"
	_, err := New(sim.NewEngine(), cfg, config.SystemMDCache, allCompressible(), 1)
	if err == nil {
		t.Fatal("expected policy error")
	}
}

func TestRAAndDataRegionsDisjoint(t *testing.T) {
	_, s := newSystem(t, config.SystemAttache, noneCompressible())
	// Workload addresses (first 2 GB of lines) never fall in the RA.
	for a := uint64(0); a < 1<<25; a += 99991 {
		ra := s.raLineFor(a)
		if ra < s.raBase || ra >= s.capLines {
			t.Fatalf("RA line %d outside region [%d, %d)", ra, s.raBase, s.capLines)
		}
		if a >= s.raBase {
			t.Fatalf("test address %d inside RA region", a)
		}
	}
}

func bytesRead(s *System) uint64 {
	var b uint64
	for _, c := range s.Channels() {
		b += c.Stats.BytesRead.Value()
	}
	return b
}
