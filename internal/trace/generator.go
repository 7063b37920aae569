package trace

import (
	"fmt"
	"math/rand"
	"reflect"
)

// Pattern classifies a workload's memory access behaviour.
type Pattern uint8

// The access-pattern classes the catalog draws from.
const (
	// PatternStream walks the footprint sequentially (lbm, libquantum,
	// bwaves, STREAM).
	PatternStream Pattern = iota
	// PatternRandom touches uniformly random lines (milc, omnetpp, RAND).
	PatternRandom
	// PatternPointerChase is random with serialized dependent loads
	// (mcf, GAP graph kernels).
	PatternPointerChase
	// PatternStrided walks with a fixed multi-line stride (leslie3d,
	// GemsFDTD, cactusADM).
	PatternStrided
	// PatternPageLocal bursts several accesses within a page before
	// jumping (soplex, gcc, zeusmp, wrf, sphinx3, pr.kron).
	PatternPageLocal
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternStream:
		return "stream"
	case PatternRandom:
		return "random"
	case PatternPointerChase:
		return "pointer-chase"
	case PatternStrided:
		return "strided"
	case PatternPageLocal:
		return "page-local"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Access is one memory reference in a core's instruction stream.
type Access struct {
	// LineAddr is the line index (byte address / 64).
	LineAddr uint64
	// Store marks a write reference.
	Store bool
	// Gap is the number of instructions from the previous memory
	// reference to this one, inclusive of this reference (>= 1).
	Gap int64
	// Dependent marks a load whose address depends on the previous
	// load (pointer chasing): it cannot issue while loads are pending.
	Dependent bool
}

// Generator produces one core's access stream for a profile. Streams are
// deterministic per (profile, seed) pair.
type Generator struct {
	prof     Profile
	src      rand.Source // what rng draws from, kept so Clone can copy it
	rng      *rand.Rand
	baseLine uint64 // per-core offset so rate-mode cores do not share data
	lines    uint64 // footprint in lines

	cursor    uint64 // for stream/strided
	burstLeft int    // page-local burst remaining
	burstPage uint64
}

// NewGenerator builds a generator. Core IDs give each rate-mode core a
// disjoint slice of the address space, offset by the footprint.
func NewGenerator(prof Profile, seed int64, coreID int) *Generator {
	lines := prof.FootprintBytes / LineSize
	return NewGeneratorAt(prof, seed^int64(coreID)*0x9E37, uint64(coreID)*lines)
}

// NewGeneratorAt builds a generator whose addresses start at baseLine —
// used by mixed workloads, where every core owns a fixed-size slice
// independent of its benchmark's footprint.
func NewGeneratorAt(prof Profile, seed int64, baseLine uint64) *Generator {
	if prof.FootprintBytes < LineSize*LinesPerPage {
		panic(fmt.Sprintf("trace: footprint %d too small", prof.FootprintBytes))
	}
	lines := prof.FootprintBytes / LineSize
	src := rand.NewSource(seed)
	g := &Generator{
		prof:     prof,
		src:      src,
		rng:      rand.New(src),
		baseLine: baseLine,
		lines:    lines,
	}
	g.cursor = uint64(g.rng.Int63n(int64(lines)))
	return g
}

// Clone returns an independent generator at g's exact position, for the
// cost of copying the state rather than redoing the draws. math/rand has
// no way to copy a source, so Clone copies the value behind the
// rand.Source pointer by reflection; TestCloneSourceIsFlat fails if a Go
// release makes that a shallow copy. g is only read.
func (g *Generator) Clone() *Generator {
	c := *g
	v := reflect.ValueOf(g.src).Elem()
	p := reflect.New(v.Type())
	p.Elem().Set(v)
	c.src = p.Interface().(rand.Source)
	c.rng = rand.New(c.src)
	return &c
}

// pick draws a random line index, honoring the profile's hot-region skew:
// with probability HotProb the access lands in the first HotFrac slice of
// the footprint. Real irregular workloads (graph kernels on power-law
// inputs, mcf's arc arrays) concentrate most touches on a small hot set;
// this is what lets page-grained structures (PaPR, LiPR, the metadata
// cache) capture them.
func (g *Generator) pick() uint64 {
	if g.prof.HotProb > 0 && g.rng.Float64() < g.prof.HotProb {
		hot := uint64(float64(g.lines) * g.prof.HotFrac)
		if hot < LinesPerPage {
			hot = LinesPerPage
		}
		return uint64(g.rng.Int63n(int64(hot)))
	}
	return uint64(g.rng.Int63n(int64(g.lines)))
}

// spatial implements the irregular patterns' short same-page bursts:
// after a jump, the next SpatialBurst-ish accesses touch random lines of
// the same page (struct/field locality) before the next jump.
func (g *Generator) spatial() uint64 {
	if g.burstLeft > 0 {
		g.burstLeft--
		return g.burstPage*LinesPerPage + uint64(g.rng.Intn(LinesPerPage))
	}
	rel := g.pick()
	g.burstPage = rel / LinesPerPage
	if b := g.prof.SpatialBurst; b > 1 {
		g.burstLeft = g.rng.Intn(2*b - 1) // mean b-1 follow-on touches
	}
	return rel
}

// spatialChase is spatial with pointer-chase semantics: the jump access is
// dependent (its address came from the previous load); the follow-on
// same-page touches are independent field reads.
func (g *Generator) spatialChase() (uint64, bool) {
	jump := g.burstLeft == 0
	return g.spatial(), jump
}

// Next produces the next access.
func (g *Generator) Next() Access {
	var rel uint64
	dependent := false
	switch g.prof.Pattern {
	case PatternStream:
		rel = g.cursor
		g.cursor = (g.cursor + 1) % g.lines
	case PatternStrided:
		rel = g.cursor
		g.cursor = (g.cursor + uint64(g.prof.Stride)) % g.lines
	case PatternRandom:
		rel = g.spatial()
	case PatternPointerChase:
		rel, dependent = g.spatialChase()
	case PatternPageLocal:
		if g.burstLeft == 0 {
			g.burstPage = g.pick() / LinesPerPage
			g.burstLeft = 4 + g.rng.Intn(12)
		}
		g.burstLeft--
		rel = g.burstPage*LinesPerPage + uint64(g.rng.Intn(LinesPerPage))
	default:
		panic(fmt.Sprintf("trace: unknown pattern %v", g.prof.Pattern))
	}

	gap := int64(1)
	if g.prof.MeanGap > 1 {
		// Geometric-ish gap with the requested mean, bounded to keep
		// simulations steady.
		gap = 1 + int64(g.rng.ExpFloat64()*float64(g.prof.MeanGap-1))
		if gap > 20*g.prof.MeanGap {
			gap = 20 * g.prof.MeanGap
		}
	}
	return Access{
		LineAddr:  g.baseLine + rel,
		Store:     g.rng.Float64() < g.prof.StoreFrac,
		Gap:       gap,
		Dependent: dependent,
	}
}
