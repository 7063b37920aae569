package tier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"attache/internal/core"
	"attache/internal/snap"
)

func newFar(t *testing.T, seed int64) *core.Memory {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = seed
	far, err := core.NewMemory(opts)
	if err != nil {
		t.Fatal(err)
	}
	return far
}

func newTier(t *testing.T, cfg Config, seed int64) *Memory {
	t.Helper()
	m, err := NewMemory(cfg, newFar(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// nearSet reports which addresses are near-resident, read off the live
// recency list; a second sighting of one address fails the test.
func nearSet(t *testing.T, m *Memory) map[uint64]bool {
	t.Helper()
	resident := make(map[uint64]bool, len(m.near))
	for n := m.tail; n != nil; n = n.prev {
		if resident[n.addr] {
			t.Fatalf("address %#x resident near twice", n.addr)
		}
		resident[n.addr] = true
	}
	return resident
}

// snapshot encodes the far memory's section and then the tier's, the
// order a shard writes them in.
func snapshot(m *Memory) []byte {
	c := snap.NewEncoder(1)
	m.far.WalkSnap(c)
	m.WalkSnap(c)
	return c.Bytes()
}

// restore builds a fresh far memory and tier with m's configuration and
// decodes image into them.
func restore(t *testing.T, m *Memory, image []byte) (*Memory, error) {
	t.Helper()
	far, err := core.NewMemory(m.far.Options())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewMemory(m.cfg, far)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := snap.Open(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	far.WalkSnap(c)
	r.WalkSnap(c)
	return r, c.Finish()
}

func line(tag uint64) []byte {
	b := make([]byte, LineSize)
	for i := 0; i < LineSize; i += 8 {
		v := tag*0x9E3779B97F4A7C15 + uint64(i)
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// TestZeroCapacityNearBitIdentical: a zero-capacity near tier is a pure
// passthrough — every result and every stats counter matches a plain
// compressed memory driven with the same sequence.
func TestZeroCapacityNearBitIdentical(t *testing.T) {
	const seed = 42
	tiered := newTier(t, Config{NearLines: 0, Policy: PolicyLRU}, seed)
	plain := newFar(t, seed)

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1500; i++ {
		addr := uint64(rng.Intn(128))
		if rng.Intn(2) == 0 {
			data := line(addr + uint64(i))
			e1 := tiered.Write(addr, data)
			e2 := plain.Write(addr, data)
			if (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
				t.Fatalf("write %#x: tiered err %v, plain err %v", addr, e1, e2)
			}
		} else {
			d1, e1 := tiered.Read(addr)
			d2, e2 := plain.Read(addr)
			if (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
				t.Fatalf("read %#x: tiered err %v, plain err %v", addr, e1, e2)
			}
			if !bytes.Equal(d1, d2) {
				t.Fatalf("read %#x: tiered and plain data diverge", addr)
			}
		}
	}
	// Bad-size writes must produce the identical error too.
	e1 := tiered.Write(1, []byte{1, 2, 3})
	e2 := plain.Write(1, []byte{1, 2, 3})
	if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
		t.Fatalf("bad-size write errors diverge: %v vs %v", e1, e2)
	}

	ts, ps := tiered.far.StatsSnapshot(), plain.StatsSnapshot()
	if !reflect.DeepEqual(ts, ps) {
		t.Fatalf("far stats diverge from plain memory:\n tiered %+v\n plain  %+v", ts, ps)
	}
	s := tiered.Snapshot()
	if s.NearReads != 0 || s.NearWrites != 0 || s.Promotions != 0 || s.Demotions != 0 || s.NearResident != 0 {
		t.Fatalf("zero-capacity tier saw near traffic: %+v", s)
	}
}

// TestUnboundedNearAbsorbsEverything: with an unbounded near tier every
// write allocates near and every read of written data hits near, so the
// far link carries zero traffic.
func TestUnboundedNearAbsorbsEverything(t *testing.T) {
	m := newTier(t, Config{NearLines: -1, Policy: PolicyLRU}, 7)
	for a := uint64(0); a < 200; a++ {
		if err := m.Write(a, line(a)); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(0); a < 200; a++ {
		got, err := m.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, line(a)) {
			t.Fatalf("line %#x corrupted", a)
		}
	}
	s := m.Snapshot()
	if s.FarAccesses != 0 || s.FarLinkBlocks != 0 || s.FarReads != 0 || s.FarWrites != 0 || s.Demotions != 0 {
		t.Fatalf("unbounded near tier leaked far traffic: %+v", s)
	}
	if s.NearResident != 200 || s.Promotions != 200 {
		t.Fatalf("expected 200 resident/promoted, got %d/%d", s.NearResident, s.Promotions)
	}
	if s.FarLinkBytes != 0 || s.FarLatencyNs != 0 {
		t.Fatalf("modeled far cost nonzero with zero far traffic: %+v", s)
	}
}

// TestLRUEvictionOrder: with capacity 2, touching A keeps it resident
// while the least-recently-used line demotes.
func TestLRUEvictionOrder(t *testing.T) {
	m := newTier(t, Config{NearLines: 2, Policy: PolicyLRU}, 1)
	for _, a := range []uint64{1, 2} {
		if err := m.Write(a, line(a)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Read(1); err != nil { // 1 is now MRU
		t.Fatal(err)
	}
	if err := m.Write(3, line(3)); err != nil { // evicts 2
		t.Fatal(err)
	}
	resident := nearSet(t, m)
	if !resident[1] || !resident[3] || resident[2] {
		t.Fatalf("LRU kept the wrong lines near: %v", resident)
	}
	if !m.far.Contains(2) {
		t.Fatal("demoted line 2 lost instead of written far")
	}
	got, err := m.Read(2)
	if err != nil || !bytes.Equal(got, line(2)) {
		t.Fatalf("demoted line round-trip failed: %v", err)
	}
}

// TestReadIntoBothTiers: ReadInto is the one read path. A near hit and a
// far read (with its promotion) both overwrite a dirty destination with
// the line, the promoted copy is the tier's own — scribbling on the
// caller's buffer afterwards does not reach it — and a near hit
// allocates nothing.
func TestReadIntoBothTiers(t *testing.T) {
	m := newTier(t, Config{NearLines: 2, Policy: PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 1 << 30}, 1)
	if err := m.Write(7, line(7)); err != nil { // below the threshold: lands far
		t.Fatal(err)
	}
	var dst [LineSize]byte
	for pass, wantNear := range []int{1, 1, 1} { // far read that promotes, then near hits
		for i := range dst {
			dst[i] = 0xEE
		}
		if err := m.ReadInto(&dst, 7); err != nil || !bytes.Equal(dst[:], line(7)) {
			t.Fatalf("pass %d: %v, got %x", pass, err, dst)
		}
		if len(m.near) != wantNear {
			t.Fatalf("pass %d: %d lines near, want %d", pass, len(m.near), wantNear)
		}
	}
	if s := m.Snapshot(); s.FarReads != 1 || s.NearReads != 2 || s.Promotions != 1 {
		t.Fatalf("traffic split: %+v", s)
	}
	if n := testing.AllocsPerRun(100, func() { m.ReadInto(&dst, 7) }); n != 0 {
		t.Fatalf("a near hit allocates %.1f times, want 0", n)
	}
	if err := m.ReadInto(&dst, 8); !errors.Is(err, core.ErrNeverWritten) {
		t.Fatalf("unwritten line: %v", err)
	}
}

// TestExchangeAllocatesNothing: on a full near tier a far hit is a whole
// exchange — far read, demotion (the victim's stored form handed back to
// the far memory), promotion, far take — and moves lines between
// structures that already exist: the promoted line takes the victim's
// node, and the demotion lands in the table slot the victim's own take
// lent out. A scan over a working set 16x the near tier misses every time.
func TestExchangeAllocatesNothing(t *testing.T) {
	const near, lines = 64, 16 * 64
	m := newTier(t, Config{NearLines: near, Policy: PolicyLRU}, 1)
	for a := uint64(0); a < lines; a++ {
		if err := m.Write(a, line(a)); err != nil {
			t.Fatal(err)
		}
	}
	var dst [LineSize]byte
	next := uint64(0)
	before := m.Snapshot()
	allocs := testing.AllocsPerRun(4*lines, func() {
		if err := m.ReadInto(&dst, next%lines); err != nil || !bytes.Equal(dst[:], line(next%lines)) {
			t.Fatalf("line %#x: %v, got %x", next%lines, err, dst)
		}
		next++
	})
	after := m.Snapshot()
	if moved := after.Promotions - before.Promotions; moved != next || after.Demotions-before.Demotions != next || after.NearReads != before.NearReads {
		t.Fatalf("%d reads made %d promotions, %d demotions and %d near hits: not every read was an exchange",
			next, moved, after.Demotions-before.Demotions, after.NearReads-before.NearReads)
	}
	if allocs != 0 {
		t.Fatalf("an exchange allocates %.1f times, want 0", allocs)
	}
}

// TestFreqThresholdGate: the freq policy leaves a line far until it has
// been touched FreqThreshold times.
func TestFreqThresholdGate(t *testing.T) {
	m := newTier(t, Config{NearLines: 4, Policy: PolicyFreq, FreqThreshold: 3, FreqDecayEvery: 1 << 30}, 1)
	if err := m.Write(9, line(9)); err != nil { // touch 1: stays far
		t.Fatal(err)
	}
	if len(m.near) != 0 {
		t.Fatalf("line promoted after 1 touch (threshold 3)")
	}
	if _, err := m.Read(9); err != nil { // touch 2: stays far
		t.Fatal(err)
	}
	if len(m.near) != 0 {
		t.Fatalf("line promoted after 2 touches (threshold 3)")
	}
	if _, err := m.Read(9); err != nil { // touch 3: promotes
		t.Fatal(err)
	}
	if len(m.near) != 1 {
		t.Fatalf("line not promoted after reaching threshold")
	}
	s := m.Snapshot()
	if s.Promotions != 1 || s.FarReads != 2 || s.FarWrites != 1 {
		t.Fatalf("unexpected freq traffic split: %+v", s)
	}
}

// TestStaticPinPolicy: only pinned addresses go near, nothing demotes,
// and a full pin region blocks further promotions rather than evicting.
func TestStaticPinPolicy(t *testing.T) {
	// Pin addr>>4 == 1, i.e. addresses 16..31.
	m := newTier(t, Config{NearLines: 2, Policy: PolicyStatic, PinShift: 4, PinPrefix: 1}, 1)
	for _, a := range []uint64{16, 17, 18, 40} {
		if err := m.Write(a, line(a)); err != nil {
			t.Fatal(err)
		}
	}
	resident := nearSet(t, m)
	if !resident[16] || !resident[17] {
		t.Fatalf("pinned addresses not near: %v", resident)
	}
	if resident[18] {
		t.Fatal("pinned address promoted past capacity (static must not evict)")
	}
	if resident[40] {
		t.Fatal("unpinned address promoted")
	}
	if s := m.Snapshot(); s.Demotions != 0 {
		t.Fatalf("static policy demoted %d lines", s.Demotions)
	}
}

// TestPolicyDeterminism: the same op sequence on two fresh tiers leaves
// byte-identical snapshots — victim tie-breaking included.
func TestPolicyDeterminism(t *testing.T) {
	for _, policy := range []string{PolicyLRU, PolicyFreq, PolicyStatic} {
		t.Run(policy, func(t *testing.T) {
			run := func() []byte {
				m := newTier(t, Config{NearLines: 4, Policy: policy, FreqThreshold: 2, FreqDecayEvery: 32, PinShift: 3, PinPrefix: 2}, 5)
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 1200; i++ {
					addr := uint64(rng.Intn(48))
					if rng.Intn(3) == 0 {
						if err := m.Write(addr, line(addr+uint64(i))); err != nil {
							t.Fatal(err)
						}
					} else {
						if _, err := m.Read(addr); err != nil && !errors.Is(err, core.ErrNeverWritten) {
							t.Fatal(err)
						}
					}
				}
				return snapshot(m)
			}
			if !bytes.Equal(run(), run()) {
				t.Fatal("identical runs left different snapshots")
			}
		})
	}
}

// TestTierStateRoundTrip: snapshot mid-workload, restore into a fresh
// tier over a restored far memory, and drive both originals and
// restorations identically — results and snapshots must match exactly.
func TestTierStateRoundTrip(t *testing.T) {
	for _, policy := range []string{PolicyLRU, PolicyFreq, PolicyStatic} {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{NearLines: 6, Policy: policy, FreqThreshold: 2, FreqDecayEvery: 64, PinShift: 3, PinPrefix: 1}
			m := newTier(t, cfg, 11)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 800; i++ {
				addr := uint64(rng.Intn(40))
				if rng.Intn(2) == 0 {
					if err := m.Write(addr, line(addr^uint64(i))); err != nil {
						t.Fatal(err)
					}
				} else if _, err := m.Read(addr); err != nil && !errors.Is(err, core.ErrNeverWritten) {
					t.Fatal(err)
				}
			}

			image := snapshot(m)
			restored, err := restore(t, m, image)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshot(restored), image) {
				t.Fatal("restore→snapshot changed the bytes")
			}
			if !reflect.DeepEqual(m.Snapshot(), restored.Snapshot()) {
				t.Fatalf("snapshots diverge immediately after restore:\n %+v\n %+v", m.Snapshot(), restored.Snapshot())
			}

			// Second half on both: must stay in lockstep.
			for i := 0; i < 800; i++ {
				addr := uint64(rng.Intn(40))
				if rng.Intn(2) == 0 {
					data := line(addr + uint64(i)*7)
					e1, e2 := m.Write(addr, data), restored.Write(addr, data)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("write %#x diverged: %v vs %v", addr, e1, e2)
					}
				} else {
					d1, e1 := m.Read(addr)
					d2, e2 := restored.Read(addr)
					if (e1 == nil) != (e2 == nil) || !bytes.Equal(d1, d2) {
						t.Fatalf("read %#x diverged: %v vs %v", addr, e1, e2)
					}
				}
			}
			if !reflect.DeepEqual(m.Snapshot(), restored.Snapshot()) {
				t.Fatalf("snapshots diverge after post-restore workload:\n %+v\n %+v", m.Snapshot(), restored.Snapshot())
			}
		})
	}
}

// TestRestoreRejects: a snapshot of a tier whose live state breaks the
// layer's invariants is refused on restore.
func TestRestoreRejects(t *testing.T) {
	cfg := Config{NearLines: 2, Policy: PolicyLRU}
	base := func(t *testing.T) *Memory {
		m := newTier(t, cfg, 1)
		for _, a := range []uint64{1, 2, 3} {
			if err := m.Write(a, line(a)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	for name, breakIt := range map[string]func(t *testing.T, m *Memory){
		"over-capacity": func(t *testing.T, m *Memory) {
			n := &node{addr: 77}
			m.near[n.addr] = n
			m.pushFront(n)
		},
		"duplicate-near": func(t *testing.T, m *Memory) {
			m.tail.addr = m.head.addr
		},
		"dual-residency": func(t *testing.T, m *Memory) {
			if err := m.far.Write(m.head.addr, line(0)); err != nil {
				t.Fatal(err)
			}
		},
		"freq-state-for-lru": func(t *testing.T, m *Memory) {
			m.farFreq = map[uint64]uint64{1: 2}
		},
	} {
		t.Run(name, func(t *testing.T) {
			m := base(t)
			if _, err := restore(t, m, snapshot(m)); err != nil {
				t.Fatalf("intact tier does not restore: %v", err)
			}
			breakIt(t, m)
			if _, err := restore(t, m, snapshot(m)); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("restore of a broken tier: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSnapshotAccumulate covers the merge semantics used by engine- and
// cluster-level stat aggregation.
func TestSnapshotAccumulate(t *testing.T) {
	a := Snapshot{Policy: "lru", NearCapacity: 4, NearResident: 2, NearReads: 10, FarReads: 3, Promotions: 5, Demotions: 3, EnergyPJ: 100}
	b := Snapshot{Policy: "lru", NearCapacity: 4, NearResident: 1, NearReads: 7, FarReads: 2, Promotions: 2, Demotions: 1, EnergyPJ: 50}
	a.Accumulate(b)
	if a.NearCapacity != 8 || a.NearResident != 3 || a.NearReads != 17 || a.FarReads != 5 || a.Promotions != 7 || a.Demotions != 4 || a.EnergyPJ != 150 {
		t.Fatalf("merge wrong: %+v", a)
	}
	u := Snapshot{NearCapacity: -1}
	u.Accumulate(Snapshot{Policy: "freq", NearCapacity: 100})
	if u.NearCapacity != -1 || u.Policy != "freq" {
		t.Fatalf("unbounded merge wrong: %+v", u)
	}
}

// TestLinkModelFigures pins the derived cost math on a tiny case.
func TestLinkModelFigures(t *testing.T) {
	cfg := Config{NearLines: 0, Policy: PolicyLRU,
		Link: LinkModel{FarLatencyNs: 100, FarBandwidthMult: 2, NearEnergyPerByte: 1, FarEnergyPerByte: 3}}
	m := newTier(t, cfg, 1)
	if err := m.Write(5, line(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(5); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	far := m.far.StatsSnapshot()
	wantBlocks := far.BlocksRead + far.BlocksWritten
	if s.FarAccesses != 2 || s.FarLinkBlocks != wantBlocks {
		t.Fatalf("far traffic wrong: %+v", s)
	}
	if want := float64(wantBlocks*core.SubRankBlock) * 2; s.FarLinkBytes != want {
		t.Fatalf("FarLinkBytes = %g, want %g", s.FarLinkBytes, want)
	}
	if want := 2 * 100.0; s.FarLatencyNs != want {
		t.Fatalf("FarLatencyNs = %g, want %g", s.FarLatencyNs, want)
	}
	if s.NearBytes != 0 {
		t.Fatalf("zero-capacity tier counted near bytes: %d", s.NearBytes)
	}
	if want := s.FarLinkBytes * 3; s.EnergyPJ != want {
		t.Fatalf("EnergyPJ = %g, want %g", s.EnergyPJ, want)
	}
}

// TestParseSpec covers the shared -tiers spec syntax.
func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("near=4096,policy=freq,freq-threshold=3,freq-decay=512,pin=0x1f@20,lat=350,bw=1.5,near-energy=0.2,far-energy=2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NearLines != 4096 || cfg.Policy != PolicyFreq || cfg.FreqThreshold != 3 ||
		cfg.FreqDecayEvery != 512 || cfg.PinPrefix != 0x1f || cfg.PinShift != 20 {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
	if cfg.Link.FarLatencyNs != 350 || cfg.Link.FarBandwidthMult != 1.5 ||
		cfg.Link.NearEnergyPerByte != 0.2 || cfg.Link.FarEnergyPerByte != 2 {
		t.Fatalf("parsed link wrong: %+v", cfg.Link)
	}

	if cfg, err := ParseSpec("near=-1"); err != nil || cfg.NearLines != -1 || cfg.Policy != PolicyLRU {
		t.Fatalf("minimal spec: cfg %+v err %v", cfg, err)
	}
	for _, bad := range []string{
		"", "policy=lru", "near=x", "near=4,policy=mru", "near=4,pin=7",
		"near=4,pin=7@70", "near=4,bw=0", "near=4,lat=-1", "near=4,zap=1", "near=4,near",
		"near=8,bw=NaN", "near=8,lat=NaN", "near=8,bw=Inf", "near=8,far-energy=+Inf",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted a bad spec", bad)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, and a spec it accepts is a
// config Validate accepts, with every link-model field finite.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"near=4096,policy=freq,freq-threshold=3,freq-decay=512,pin=0x1f@20,lat=350,bw=1.5,near-energy=0.2,far-energy=2",
		"near=-1", "near=8,bw=NaN", "near=8,lat=nan", "near=8,near-energy=Inf",
		"near=8,far-energy=+Inf", "near=8,lat=-Inf", "near=8,bw=1e400",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseSpec(s)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config Validate refuses: %v", s, err)
		}
		l := cfg.Link
		for _, v := range []float64{l.FarLatencyNs, l.FarBandwidthMult, l.NearEnergyPerByte, l.FarEnergyPerByte} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseSpec(%q) accepted a non-finite link model %+v", s, l)
			}
		}
	})
}

// TestConfigValidate pins the config error paths.
func TestConfigValidate(t *testing.T) {
	if err := (Config{Policy: "mru"}).Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := (Config{PinShift: 64}).Validate(); err == nil {
		t.Fatal("pin shift 64 accepted")
	}
	if err := (Config{Link: LinkModel{FarLatencyNs: -1}}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	for _, l := range []LinkModel{
		{FarLatencyNs: math.NaN()}, {FarBandwidthMult: math.NaN()},
		{NearEnergyPerByte: math.Inf(1)}, {FarEnergyPerByte: math.NaN()},
	} {
		if err := (Config{Link: l}).Validate(); err == nil {
			t.Fatalf("non-finite link model %+v accepted", l)
		}
	}
	if _, err := NewMemory(Config{Policy: "bogus"}, newFar(t, 1)); err == nil {
		t.Fatal("NewMemory accepted an invalid config")
	}
}

// mixedLine returns a zero, a compressible or a random line, a third of
// the time each.
func mixedLine(rng *rand.Rand) []byte {
	b := make([]byte, LineSize)
	switch rng.Intn(3) {
	case 1: // one base, small deltas: BDI's shape
		base := rng.Uint64()
		for i := 0; i < LineSize; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], base+uint64(rng.Intn(100)))
		}
	case 2:
		rng.Read(b)
	}
	return b
}

// TestCleanDemotionIsExact: handing a clean victim's stored form back,
// instead of storing its bytes again, changes nothing anyone can see. Two
// tiers run one seeded stream of 200 k reads and writes over 16x the near
// tier: one sends every demotion through far.Write (rewriteAll), the other
// runs as shipped and is snapshotted and restored halfway, which turns its
// near lines dirty. They must agree on every read, on the far memory's
// stats, the tier's snapshot, BLEM's counters and the snapshot image. At
// a 3-bit CID one random line in eight collides, so collided lines
// promote and demote as well.
func TestCleanDemotionIsExact(t *testing.T) {
	const ops, lines = 200_000, 1024
	for _, cidBits := range []int{15, 3} {
		for _, policy := range []string{PolicyLRU, PolicyFreq, PolicyStatic} {
			t.Run(fmt.Sprintf("%s/cid%d", policy, cidBits), func(t *testing.T) {
				cfg := Config{NearLines: lines / 16, Policy: policy, FreqThreshold: 2, FreqDecayEvery: 256, PinShift: 9, PinPrefix: 1}
				opts := core.DefaultOptions()
				opts.CIDBits = cidBits
				var tiers [2]*Memory
				for i := range tiers {
					far, err := core.NewMemory(opts)
					if err != nil {
						t.Fatal(err)
					}
					if tiers[i], err = NewMemory(cfg, far); err != nil {
						t.Fatal(err)
					}
				}
				tiers[0].rewriteAll = true
				rng := rand.New(rand.NewSource(int64(cidBits)))
				for op := 0; op < ops; op++ {
					if op == ops/2 {
						r, err := restore(t, tiers[1], snapshot(tiers[1]))
						if err != nil {
							t.Fatal(err)
						}
						tiers[1] = r
					}
					addr := uint64(rng.Intn(lines))
					if rng.Intn(4) == 0 {
						data := mixedLine(rng)
						for _, m := range tiers {
							if err := m.Write(addr, data); err != nil {
								t.Fatal(err)
							}
						}
						continue
					}
					var got [2][LineSize]byte
					var errs [2]error
					for i, m := range tiers {
						errs[i] = m.ReadInto(&got[i], addr)
					}
					if got[0] != got[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
						t.Fatalf("op %d: read %#x: rewritten %x, %v; shipped %x, %v", op, addr, got[0], errs[0], got[1], errs[1])
					}
				}
				rewritten, shipped := tiers[0], tiers[1]
				if a, b := rewritten.far.StatsSnapshot(), shipped.far.StatsSnapshot(); a != b {
					t.Fatalf("far stats diverge:\n rewritten %+v\n shipped   %+v", a, b)
				}
				if a, b := rewritten.Snapshot(), shipped.Snapshot(); a != b {
					t.Fatalf("tier snapshots diverge:\n rewritten %+v\n shipped   %+v", a, b)
				}
				if a, b := rewritten.far.Framework().Blem.Stats, shipped.far.Framework().Blem.Stats; !reflect.DeepEqual(a, b) {
					t.Fatalf("BLEM stats diverge:\n rewritten %+v\n shipped   %+v", a, b)
				}
				if !bytes.Equal(snapshot(rewritten), snapshot(shipped)) {
					t.Fatal("snapshot images differ")
				}
				if s := shipped.Snapshot(); policy != PolicyStatic && s.Demotions < ops/100 {
					t.Fatalf("%d demotions in %d ops: the stream hardly exchanges", s.Demotions, ops)
				}
			})
		}
	}
}
