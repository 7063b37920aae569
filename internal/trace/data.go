// Package trace is the workload substrate standing in for the paper's
// Pin-driven SPEC2006/GAP traces (see DESIGN.md §4 for the substitution
// argument). It provides:
//
//   - DataModel: deterministic per-address synthesis of 64-byte line
//     contents with controlled compressibility and page-level homogeneity,
//     so the compression engine, BLEM, and COPR operate on real bytes;
//   - Generator: per-core memory access streams with per-benchmark
//     patterns (streaming, random, pointer-chasing, strided, page-local);
//   - Catalog: the benchmark profiles used by every experiment.
package trace

import (
	"encoding/binary"

	"attache/internal/compress"
)

// LineSize is the unit of data synthesis.
const LineSize = 64

// LinesPerPage matches the 4 KB page geometry used by COPR.
const LinesPerPage = 64

// DataModel deterministically assigns content to every line address. The
// same address always yields the same bytes for a given model, so stored
// compressibility is stable across a run — matching the paper's
// observation that line compressibility rarely changes over its lifetime
// (§VI-C).
type DataModel struct {
	seed        uint64
	compFrac    float64
	homogeneity float64
	engine      *compress.Engine
}

// NewDataModel builds a model where approximately compFrac of lines
// compress to <= 30 bytes and homogeneity is the probability that a page
// is uniform (all lines the same class) rather than line-mixed.
func NewDataModel(seed uint64, compFrac, homogeneity float64) *DataModel {
	if compFrac < 0 || compFrac > 1 || homogeneity < 0 || homogeneity > 1 {
		panic("trace: fractions must be in [0,1]")
	}
	return &DataModel{
		seed:        seed,
		compFrac:    compFrac,
		homogeneity: homogeneity,
		engine:      compress.NewEngine(),
	}
}

func mix(vs ...uint64) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		x ^= v + 0x9E3779B97F4A7C15 + x<<6 + x>>2
		x += 0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

func unitFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// Compressible reports whether the line at lineAddr (line index, i.e.
// byte address / 64) holds compressible content under this model.
func (d *DataModel) Compressible(lineAddr uint64) bool {
	page := lineAddr / LinesPerPage
	if unitFloat(mix(d.seed, page, 0xA11CE)) < d.homogeneity {
		// Uniform page: one class for all lines.
		return unitFloat(mix(d.seed, page, 0xBEEF)) < d.compFrac
	}
	return unitFloat(mix(d.seed, lineAddr, 0xC0DE)) < d.compFrac
}

// LineInto is Line with buffer reuse: it writes the content into buf when
// buf has capacity for a full line (allocating otherwise) and returns the
// 64-byte slice. Hot loops that classify millions of lines pass the same
// scratch buffer to stay allocation-free.
func (d *DataModel) LineInto(lineAddr uint64, buf []byte) []byte {
	var line []byte
	if cap(buf) >= LineSize {
		line = buf[:LineSize]
		for i := range line {
			line[i] = 0
		}
	} else {
		line = make([]byte, LineSize)
	}
	h := mix(d.seed, lineAddr, 0xDA7A)
	if !d.Compressible(lineAddr) {
		// Incompressible: pseudo-random bytes. Random 64-byte strings
		// compress under neither BDI nor FPC (verified by construction
		// below and by the package tests).
		for i := 0; i < LineSize; i += 8 {
			binary.LittleEndian.PutUint64(line[i:], mix(h, uint64(i)))
		}
		// Guard: in the astronomically unlikely case the random line is
		// compressible, force it incompressible by maximizing word
		// entropy deterministically.
		for attempt := uint64(1); d.engine.Compressible(line); attempt++ {
			for i := 0; i < LineSize; i += 8 {
				binary.LittleEndian.PutUint64(line[i:], mix(h, attempt, uint64(i)))
			}
		}
		return line
	}
	// Compressible: draw a style the way real workloads mix patterns.
	switch h % 4 {
	case 0: // mostly-zero line (FPC zero words)
		for i := 0; i < 4; i++ {
			line[i*8] = byte(mix(h, uint64(i)) % 100)
		}
	case 1: // repeated 8-byte value (BDI rep)
		v := mix(h, 1)
		for i := 0; i < LineSize; i += 8 {
			binary.LittleEndian.PutUint64(line[i:], v)
		}
	case 2: // pointer-array style: common base + small deltas (BDI b8d1/b8d2)
		base := mix(h, 2) &^ 0xFFFF
		for i := 0; i < 8; i++ {
			delta := mix(h, uint64(3+i)) % 1024
			binary.LittleEndian.PutUint64(line[i*8:], base+delta)
		}
	default: // small-integer array (FPC sign-extended words)
		for w := 0; w < 16; w++ {
			v := uint32(mix(h, uint64(20+w)) % 128)
			binary.LittleEndian.PutUint32(line[w*4:], v)
		}
	}
	return line
}

// CIDCollides reports whether the line at lineAddr, when stored
// uncompressed and scrambled, collides with a CID of the given width.
// It is deterministic per address: the scrambled bits of a fixed line at
// a fixed address never change. The probability over addresses is
// 2^-cidBits, the paper's 0.003% for 15 bits.
func (d *DataModel) CIDCollides(lineAddr uint64, cidBits int) bool {
	h := mix(d.seed, lineAddr, 0x5C4A)
	return h&(1<<uint(cidBits)-1) == 0
}
