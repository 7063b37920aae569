// Package workload is the generative workload layer: it turns a
// declarative Spec — one or more clients, each with its own stochastic
// arrival process, multi-period rate envelope, address pattern, payload
// compressibility, and op mix — into one seeded, deterministic event
// stream that anything implementing loadgen.Target can execute.
//
// The paper evaluates Attaché across workloads whose compressibility and
// locality profiles differ wildly (streaming array scans vs. pointer
// chasing vs. hot-page skew); this package makes those traffic shapes
// first-class, named, and regression-testable. Five preset scenarios
// (Names) each pin a distinct memory behavior, and per-scenario golden
// profiles under testdata/golden/ turn "did this PR change behavior
// under zipfian traffic?" into a deterministic test.
//
// Determinism contract: Compose expands a Spec into the full event
// sequence up front. Every random choice — inter-arrival gaps, op kinds,
// addresses, payloads — derives from Spec.Seed via per-client
// splitmix64-derived sub-seeds, so the same Spec always yields a
// byte-identical stream (fingerprinted by loadgen.Checksum /
// OpChecksum), and two clients never share RNG state: adding a client
// does not perturb the others' sequences.
//
// The companion tracev1 codec (TraceWriter/DecodeTrace)
// records real daemon traffic as versioned NDJSON so a capture taken
// once can be replayed byte-deterministically — see cmd/attacheload
// -replay and serve.Config.Record.
package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/shard"
	"attache/internal/stats"
)

// Process selects a client's inter-arrival distribution.
type Process uint8

const (
	// Poisson arrivals: exponential gaps — memoryless open-loop traffic.
	Poisson Process = iota
	// Gamma arrivals with shape k: k>1 is more regular than Poisson
	// (machine-like pacing), k<1 is burstier (gaps cluster, then gape).
	GammaProc
	// Weibull arrivals with shape k: k<1 gives the heavy-tailed
	// bursty-session shape measured in production serving traces.
	WeibullProc
)

func (p Process) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case GammaProc:
		return "gamma"
	case WeibullProc:
		return "weibull"
	}
	return fmt.Sprintf("process(%d)", uint8(p))
}

// Arrival is one client's inter-arrival process: a distribution, its
// mean rate in events/second, and (for Gamma/Weibull) a shape.
type Arrival struct {
	Process Process `json:"process"`
	// Rate is the mean arrival rate, events/second. Must be > 0.
	Rate float64 `json:"rate"`
	// Shape is the Gamma/Weibull shape parameter k (>0). Ignored for
	// Poisson. 0 defaults to 1 (which makes both reduce to exponential).
	Shape float64 `json:"shape,omitempty"`
}

// Period is one sinusoidal component of a client's rate envelope. An
// envelope of several Periods models multi-period (e.g. diurnal +
// hourly) load swings: the instantaneous rate is
//
//	rate(t) = Arrival.Rate * max(0.05, 1 + Σ Amplitude·sin(2πt/Period + Phase))
//
// and each sampled gap is scaled by the envelope at the client's current
// clock, so dense phases really do arrive densely.
type Period struct {
	Period    time.Duration `json:"period"`
	Amplitude float64       `json:"amplitude"`
	Phase     float64       `json:"phase,omitempty"`
}

// AddrKind selects a client's address-pattern generator.
type AddrKind uint8

const (
	// AddrUniform draws addresses uniformly over the space.
	AddrUniform AddrKind = iota
	// AddrStream walks the space sequentially with a fixed stride and
	// wraps — the array-scan / streaming pattern.
	AddrStream
	// AddrChase performs a deterministic pseudo-random walk (each address
	// is a hash of the previous one) — the dependent pointer-chasing
	// pattern with near-zero page locality.
	AddrChase
	// AddrZipf draws a page from a Zipf distribution and a uniform line
	// within it — the hot-page skew pattern.
	AddrZipf
)

func (k AddrKind) String() string {
	switch k {
	case AddrUniform:
		return "uniform"
	case AddrStream:
		return "stream"
	case AddrChase:
		return "chase"
	case AddrZipf:
		return "zipf"
	}
	return fmt.Sprintf("addr(%d)", uint8(k))
}

// AddrPattern configures a client's address generator.
type AddrPattern struct {
	Kind AddrKind `json:"kind"`
	// Stride is the line step for AddrStream. 0 defaults to 1.
	Stride uint64 `json:"stride,omitempty"`
	// ZipfS is the Zipf skew s (>1) for AddrZipf. 0 defaults to 1.2.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// PageLines is the page size in lines for AddrZipf (the unit of
	// hotness). 0 defaults to 64 (a 4 KB page of 64-byte lines).
	PageLines uint64 `json:"page_lines,omitempty"`
}

// PayloadKind selects what a client writes, which is what decides how
// compressible the memory becomes under that client.
type PayloadKind uint8

const (
	// PayloadMixed alternates by address parity between an array-like
	// line and an incompressible one — loadgen's default mix.
	PayloadMixed PayloadKind = iota
	// PayloadCompressible writes base+small-delta word runs that BDI
	// packs well below the sub-rank block — the best case.
	PayloadCompressible
	// PayloadPointer writes plausible 48-bit pointer runs with small
	// strides — compressible, but through the delta path.
	PayloadPointer
	// PayloadHostile writes keyed xorshift noise — incompressible by
	// every codec, the metadata-bandwidth worst case.
	PayloadHostile
	// PayloadZero writes all-zero lines — the degenerate best case.
	PayloadZero
)

func (k PayloadKind) String() string {
	switch k {
	case PayloadMixed:
		return "mixed"
	case PayloadCompressible:
		return "compressible"
	case PayloadPointer:
		return "pointer"
	case PayloadHostile:
		return "hostile"
	case PayloadZero:
		return "zero"
	}
	return fmt.Sprintf("payload(%d)", uint8(k))
}

// Mix is a client's op mix: relative weights for read, write, and batch
// events, and the op count of one batch.
type Mix struct {
	ReadWeight  int `json:"read_weight"`
	WriteWeight int `json:"write_weight"`
	BatchWeight int `json:"batch_weight"`
	// BatchSize is ops per batch event. 0 defaults to 16.
	BatchSize int `json:"batch_size,omitempty"`
}

// ClientSpec is one traffic source inside a Spec.
type ClientSpec struct {
	// Name labels the client in errors and docs.
	Name string `json:"name"`
	// Events is how many events this client contributes. Must be > 0.
	Events int `json:"events"`
	// Arrival is the inter-arrival process; Envelope (optional) modulates
	// its rate over time.
	Arrival  Arrival     `json:"arrival"`
	Envelope []Period    `json:"envelope,omitempty"`
	Mix      Mix         `json:"mix"`
	Addr     AddrPattern `json:"addr"`
	Payload  PayloadKind `json:"payload"`
}

// Spec is a complete generative workload: a seed, an address space, and
// one or more clients whose event streams are merged by arrival time.
type Spec struct {
	// Name labels the spec (preset scenarios set it to their own name).
	Name string `json:"name"`
	// Seed drives every random choice. Same Spec ⇒ same stream.
	Seed int64 `json:"seed"`
	// AddrSpace bounds generated line addresses. Must be > 0.
	AddrSpace uint64 `json:"addr_space"`
	// Prefill carries loadgen semantics: lines to write before the
	// measured run (0 = AddrSpace/2 capped at 64K, negative = none).
	Prefill int `json:"prefill"`
	// Clients are the traffic sources. At least one.
	Clients []ClientSpec `json:"clients"`
}

// Validate reports the first structural problem with the spec.
func (s Spec) Validate() error {
	if s.AddrSpace == 0 {
		return fmt.Errorf("workload: spec %q: AddrSpace must be > 0", s.Name)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("workload: spec %q: needs at least one client", s.Name)
	}
	for i, c := range s.Clients {
		label := c.Name
		if label == "" {
			label = fmt.Sprintf("client %d", i)
		}
		if c.Events <= 0 {
			return fmt.Errorf("workload: spec %q: %s: Events must be > 0", s.Name, label)
		}
		if !(c.Arrival.Rate > 0) {
			return fmt.Errorf("workload: spec %q: %s: Arrival.Rate must be > 0", s.Name, label)
		}
		if c.Arrival.Process != Poisson && c.Arrival.Shape < 0 {
			return fmt.Errorf("workload: spec %q: %s: Arrival.Shape must be >= 0", s.Name, label)
		}
		m := c.Mix
		if m.ReadWeight < 0 || m.WriteWeight < 0 || m.BatchWeight < 0 ||
			m.ReadWeight+m.WriteWeight+m.BatchWeight == 0 {
			return fmt.Errorf("workload: spec %q: %s: op mix weights must be non-negative and sum > 0", s.Name, label)
		}
		if c.Addr.Kind == AddrZipf && c.Addr.ZipfS != 0 && c.Addr.ZipfS <= 1 {
			return fmt.Errorf("workload: spec %q: %s: ZipfS must be > 1", s.Name, label)
		}
	}
	return nil
}

// clientSeed derives client i's private RNG seed from the spec seed.
// splitmix64 has full avalanche, so adjacent client indices get
// unrelated RNG streams.
func clientSeed(seed int64, i int) int64 {
	return int64(stats.SplitMix64(uint64(seed) ^ stats.SplitMix64(uint64(i)+1)))
}

// Compose expands spec into its deterministic, time-merged event
// sequence. Each client's stream is generated independently from its
// derived sub-seed, then the streams are merged by arrival offset with a
// stable (client index, sequence) tie-break.
func Compose(spec Spec) ([]loadgen.Event, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	type tagged struct {
		ev     loadgen.Event
		client int
		seq    int
	}
	total := 0
	for _, c := range spec.Clients {
		total += c.Events
	}
	all := make([]tagged, 0, total)
	for ci, cs := range spec.Clients {
		rng := rand.New(rand.NewSource(clientSeed(spec.Seed, ci)))
		gen := newAddrGen(cs.Addr, spec.AddrSpace, rng)
		pay := payloadFunc(cs.Payload)
		mix := cs.Mix
		if mix.BatchSize == 0 {
			mix.BatchSize = 16
		}
		wsum := mix.ReadWeight + mix.WriteWeight + mix.BatchWeight
		// In-batch write probability follows the read/write balance; a
		// batch-only mix falls back to 1-in-4 writes like loadgen.
		wNum, wDen := mix.WriteWeight, mix.ReadWeight+mix.WriteWeight
		if wDen == 0 {
			wNum, wDen = 1, 4
		}
		var clock time.Duration
		for i := 0; i < cs.Events; i++ {
			gap := sampleGap(rng, cs.Arrival)
			gap /= envelopeAt(cs.Envelope, clock)
			clock += time.Duration(gap * float64(time.Second))
			ev := loadgen.Event{At: clock}
			switch w := rng.Intn(wsum); {
			case w < mix.ReadWeight:
				ev.Kind = loadgen.Read
				ev.Ops = []shard.Op{{Addr: gen.next(rng)}}
			case w < mix.ReadWeight+mix.WriteWeight:
				ev.Kind = loadgen.Write
				addr := gen.next(rng)
				ev.Ops = []shard.Op{{Write: true, Addr: addr, Data: pay(addr, rng.Uint64())}}
			default:
				ev.Kind = loadgen.Batch
				ev.Ops = make([]shard.Op, mix.BatchSize)
				for j := range ev.Ops {
					addr := gen.next(rng)
					if rng.Intn(wDen) < wNum {
						ev.Ops[j] = shard.Op{Write: true, Addr: addr, Data: pay(addr, rng.Uint64())}
					} else {
						ev.Ops[j] = shard.Op{Addr: addr}
					}
				}
			}
			all = append(all, tagged{ev, ci, i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.At != all[j].ev.At {
			return all[i].ev.At < all[j].ev.At
		}
		if all[i].client != all[j].client {
			return all[i].client < all[j].client
		}
		return all[i].seq < all[j].seq
	})
	events := make([]loadgen.Event, len(all))
	for i := range all {
		events[i] = all[i].ev
	}
	return events, nil
}

// PrefillPayload returns the payload generator prefill should use for
// spec: the first client's payload kind at version 0, so a scenario's
// baseline residency matches its traffic's compressibility.
func PrefillPayload(spec Spec) func(addr uint64) []byte {
	kind := PayloadMixed
	if len(spec.Clients) > 0 {
		kind = spec.Clients[0].Payload
	}
	pay := payloadFunc(kind)
	return func(addr uint64) []byte { return pay(addr, 0) }
}

// OpChecksum fingerprints the op content of an event stream — kinds,
// directions, addresses, and write payloads, but NOT arrival offsets —
// so a recorded capture (whose timestamps are wall-clock) can be proven
// op-identical to the plan that generated the traffic.
func OpChecksum(events []loadgen.Event) string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ev := range events {
		u64(uint64(ev.Kind))
		u64(uint64(len(ev.Ops)))
		for _, op := range ev.Ops {
			u64(op.Addr)
			if op.Write {
				u64(1)
				u64(uint64(len(op.Data)))
				h.Write(op.Data)
			} else {
				u64(0)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- arrival sampling ------------------------------------------------------

// sampleGap draws one inter-arrival gap in seconds for a (mean-rate
// normalized) arrival process. All three distributions are parameterized
// to the same mean 1/Rate so envelopes and rates compose uniformly.
func sampleGap(rng *rand.Rand, a Arrival) float64 {
	mean := 1 / a.Rate
	shape := a.Shape
	if shape == 0 {
		shape = 1
	}
	switch a.Process {
	case GammaProc:
		// Gamma(k, θ) has mean kθ; θ = mean/k keeps the rate fixed as
		// shape moves burstiness.
		return sampleGamma(rng, shape) * (mean / shape)
	case WeibullProc:
		// Weibull(k, λ) has mean λΓ(1+1/k); inverse-CDF sampling.
		scale := mean / math.Gamma(1+1/shape)
		return scale * math.Pow(-math.Log1p(-rng.Float64()), 1/shape)
	default: // Poisson
		return rng.ExpFloat64() * mean
	}
}

// sampleGamma draws Gamma(k, 1) via Marsaglia–Tsang squeeze (shape >= 1)
// with the standard boost for k < 1. Deterministic given the RNG stream.
func sampleGamma(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		// Gamma(k) = Gamma(k+1) · U^(1/k).
		u := rng.Float64()
		return sampleGamma(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// envelopeAt evaluates the multi-period rate envelope at offset t,
// floored at 0.05 so a deep trough slows traffic instead of stopping it.
func envelopeAt(periods []Period, t time.Duration) float64 {
	if len(periods) == 0 {
		return 1
	}
	f := 1.0
	ts := t.Seconds()
	for _, p := range periods {
		f += p.Amplitude * math.Sin(2*math.Pi*ts/p.Period.Seconds()+p.Phase)
	}
	return math.Max(0.05, f)
}

// --- address generators ----------------------------------------------------

type addrGen interface {
	next(rng *rand.Rand) uint64
}

type uniformGen struct{ space uint64 }

func (g uniformGen) next(rng *rand.Rand) uint64 { return rng.Uint64() % g.space }

type streamGen struct {
	cur, stride, space uint64
}

func (g *streamGen) next(rng *rand.Rand) uint64 {
	a := g.cur
	g.cur = (g.cur + g.stride) % g.space
	return a
}

type chaseGen struct {
	cur, space uint64
}

func (g *chaseGen) next(rng *rand.Rand) uint64 {
	// Dependent chain: the next address is a hash of the current one, so
	// the walk has no stride, no page locality, and no prefetchable
	// structure — each hop depends on the last.
	g.cur = stats.SplitMix64(g.cur + 1)
	return g.cur % g.space
}

type zipfGen struct {
	z         *rand.Zipf
	pageLines uint64
	space     uint64
}

func (g *zipfGen) next(rng *rand.Rand) uint64 {
	page := g.z.Uint64()
	return (page*g.pageLines + rng.Uint64()%g.pageLines) % g.space
}

func newAddrGen(p AddrPattern, space uint64, rng *rand.Rand) addrGen {
	switch p.Kind {
	case AddrStream:
		stride := p.Stride
		if stride == 0 {
			stride = 1
		}
		return &streamGen{cur: rng.Uint64() % space, stride: stride, space: space}
	case AddrChase:
		return &chaseGen{cur: rng.Uint64(), space: space}
	case AddrZipf:
		s := p.ZipfS
		if s == 0 {
			s = 1.2
		}
		pageLines := p.PageLines
		if pageLines == 0 {
			pageLines = 64
		}
		pages := space / pageLines
		if pages == 0 {
			pages = 1
		}
		return &zipfGen{
			z:         rand.NewZipf(rng, s, 1, pages-1),
			pageLines: pageLines,
			space:     space,
		}
	default:
		return uniformGen{space: space}
	}
}

// --- payload generators ----------------------------------------------------

// payloadFunc returns the line builder for a payload kind. Every builder
// is a pure function of (addr, version), so replays regenerate identical
// bytes.
func payloadFunc(kind PayloadKind) func(addr, version uint64) []byte {
	switch kind {
	case PayloadCompressible:
		return compressibleLine
	case PayloadPointer:
		return pointerLine
	case PayloadHostile:
		return hostileLine
	case PayloadZero:
		return zeroLine
	default:
		return mixedLine
	}
}

// compressibleLine: eight words walking up from a shared base in 1-byte
// deltas — BDI's base+Δ1 sweet spot, well under the sub-rank block.
func compressibleLine(addr, version uint64) []byte {
	line := make([]byte, core.LineSize)
	base := addr*4096 + version%128
	for w := 0; w < 8; w++ {
		binary.LittleEndian.PutUint64(line[w*8:], base+uint64(w))
	}
	return line
}

// pointerLine: a run of plausible 48-bit heap pointers with 8-byte
// strides — the linked-structure image, compressible via small deltas.
func pointerLine(addr, version uint64) []byte {
	line := make([]byte, core.LineSize)
	base := 0x7f00_0000_0000 | (addr*512+version%256)&0xffff_ffff
	for w := 0; w < 8; w++ {
		binary.LittleEndian.PutUint64(line[w*8:], base+uint64(w)*8)
	}
	return line
}

// hostileLine: keyed xorshift noise — near-zero redundancy, so every
// codec gives up and the line stores uncompressed.
func hostileLine(addr, version uint64) []byte {
	line := make([]byte, core.LineSize)
	x := addr ^ version | 1
	for w := 0; w < 8; w++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(line[w*8:], x)
	}
	return line
}

func zeroLine(addr, version uint64) []byte {
	return make([]byte, core.LineSize)
}

// mixedLine mirrors loadgen's default payload: address parity picks
// array-like or incompressible, yielding a ~50% compressible residency.
func mixedLine(addr, version uint64) []byte {
	if addr%2 == 0 {
		line := make([]byte, core.LineSize)
		base := addr*4096 + version%512
		for w := 0; w < 8; w++ {
			binary.LittleEndian.PutUint64(line[w*8:], base)
		}
		return line
	}
	return hostileLine(addr, version)
}
