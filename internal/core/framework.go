// Package core implements the Attaché framework itself — the paper's
// primary contribution (§III-IV): the memory-controller-side read and
// write flows that blend metadata into data (BLEM), predict
// compressibility before reads (COPR), and compress/scramble line
// contents on the way to memory.
//
// The package is fully functional: Store/Load operate on real 64-byte
// lines and return the exact bytes written, while reporting the access
// trace (sub-rank blocks touched, predictions, Replacement Area traffic)
// that the performance simulator models at scale. Memory wraps the
// framework into a usable compressed-memory container.
package core

import (
	"fmt"

	"attache/internal/blem"
	"attache/internal/compress"
	"attache/internal/copr"
	"attache/internal/scramble"
)

// LineSize is the framework's access granularity.
const LineSize = 64

// SubRankBlock is half a line: what one sub-rank delivers per access.
const SubRankBlock = 32

// Options configures a framework instance.
type Options struct {
	// CIDBits is the Compression ID width (15 in the paper).
	CIDBits int
	// Seed derives the boot-time CID value and scrambler key.
	Seed int64
	// Predictor configures COPR; zero value uses copr.DefaultConfig.
	Predictor copr.Config
	// DisablePredictor runs BLEM-only (always fetch conservatively).
	DisablePredictor bool
	// ExtendedCompression adds the CPack dictionary codec to the engine —
	// the multi-algorithm configuration addressed by the CID information
	// bits of §IV-A5.
	ExtendedCompression bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{CIDBits: 15, Seed: 0x41747461, Predictor: copr.DefaultConfig()}
}

// StoredLine is the physical image of one line: two sub-rank blocks.
// Compressed lines live entirely in Blocks[0] (header + packed payload);
// uncompressed lines span both blocks.
type StoredLine struct {
	Blocks     [2][SubRankBlock]byte
	Compressed bool
	Collision  bool
}

// AccessTrace reports what one framework operation cost, in the units the
// paper's evaluation counts.
type AccessTrace struct {
	// BlocksTouched is the number of 32-byte sub-rank transfers (a
	// baseline uncompressed system always spends 2 per line).
	BlocksTouched int
	// PredictedCompressed / ActualCompressed describe the COPR outcome
	// for reads.
	PredictedCompressed bool
	ActualCompressed    bool
	Mispredicted        bool
	// RAAccess marks a Replacement Area read or write.
	RAAccess bool
}

// Framework is one memory controller's Attaché instance.
type Framework struct {
	opts Options
	Comp *compress.Engine
	Scr  *scramble.Scrambler
	Blem *blem.Engine
	Copr *copr.Predictor
}

// PredictorConfig resolves the COPR configuration in force: none when
// the predictor is disabled, the paper's when Predictor is the zero value.
func (o Options) PredictorConfig() (cfg copr.Config, enabled bool) {
	switch {
	case o.DisablePredictor:
		return copr.Config{}, false
	case o.Predictor.MemorySize == 0:
		return copr.DefaultConfig(), true
	}
	return o.Predictor, true
}

// New builds a framework.
func New(opts Options) (*Framework, error) {
	if opts.CIDBits < 1 || opts.CIDBits > 15 {
		return nil, fmt.Errorf("core: CID width %d not in [1,15]: %w", opts.CIDBits, ErrOutOfRange)
	}
	cfg, predict := opts.PredictorConfig()
	if err := cfg.Validate(); predict && err != nil {
		return nil, fmt.Errorf("core: %v: %w", err, ErrOutOfRange)
	}
	eng := compress.NewEngine()
	if opts.ExtendedCompression {
		eng = compress.NewExtendedEngine()
	}
	f := &Framework{
		opts: opts,
		Comp: eng,
		Scr:  scramble.New(uint64(opts.Seed) * 0x9E3779B97F4A7C15),
		Blem: blem.NewEngine(opts.CIDBits, opts.Seed),
	}
	if predict {
		f.Copr = copr.New(cfg)
	}
	return f, nil
}

// Store runs the write path of Fig. 9(a-c): compress, scramble, and blend
// the metadata header, parking a displaced bit in the Replacement Area on
// a CID collision. data must be exactly 64 bytes.
func (f *Framework) Store(lineAddr uint64, data []byte) (StoredLine, AccessTrace, error) {
	if len(data) != LineSize {
		return StoredLine{}, AccessTrace{}, fmt.Errorf("core: Store needs a %d-byte line, got %d: %w", LineSize, len(data), ErrBadLineSize)
	}
	var out StoredLine
	tr := AccessTrace{}

	// Both stored forms are built in stack buffers: Store allocates nothing.
	var buf [blem.MaxPayload]byte
	if packed, algo := f.Comp.AppendPacked(buf[:0], data); algo != compress.AlgoNone {
		f.Scr.Apply(lineAddr, packed)
		block, err := f.Blem.PackCompressed(packed)
		if err != nil {
			return StoredLine{}, tr, err
		}
		out.Blocks[0] = block
		out.Compressed = true
		tr.ActualCompressed = true
		tr.BlocksTouched = 1
	} else {
		var scrambled [LineSize]byte
		copy(scrambled[:], data)
		f.Scr.Apply(lineAddr, scrambled[:])
		stored, collision := f.Blem.StoreUncompressed(lineAddr, scrambled[:])
		copy(out.Blocks[0][:], stored[:SubRankBlock])
		copy(out.Blocks[1][:], stored[SubRankBlock:])
		out.Collision = collision
		tr.BlocksTouched = 2
		if collision {
			tr.RAAccess = true
		}
	}
	if f.Copr != nil {
		// The controller knows the line's compressibility on writes and
		// keeps the predictor warm with it; no prediction was consulted,
		// so this trains without scoring accuracy.
		f.Copr.Train(lineAddr*LineSize, out.Compressed)
	}
	return out, tr, nil
}

// Load runs the read path of Fig. 9(d-f) into a freshly allocated line;
// see LoadInto, which it wraps.
func (f *Framework) Load(lineAddr uint64, stored StoredLine) ([]byte, AccessTrace, error) {
	data := new([LineSize]byte)
	tr, err := f.LoadInto(data, lineAddr, stored)
	if err != nil {
		return nil, tr, err
	}
	return data[:], tr, nil
}

// LoadInto runs the read path of Fig. 9(d-f): predict with COPR, fetch the
// predicted sub-rank block(s), classify via the blended header, correct a
// misprediction with the remaining block, consult the Replacement Area on
// a collision, then descramble and decompress into dst. A compressed
// block is decoded in one walk over its padded payload, which also finds
// where the payload ends; a payload that does not decode is the one
// error. It allocates nothing; every byte of dst is written on success,
// and dst holds unspecified bytes when an error is returned.
func (f *Framework) LoadInto(dst *[LineSize]byte, lineAddr uint64, stored StoredLine) (AccessTrace, error) {
	tr := AccessTrace{ActualCompressed: stored.Compressed}
	if f.Copr != nil {
		tr.PredictedCompressed, _ = f.Copr.Predict(lineAddr * LineSize)
	} else {
		tr.PredictedCompressed = false // conservative: fetch both halves
	}

	if tr.PredictedCompressed {
		tr.BlocksTouched = 1 // fetched the header-bearing block only
	} else {
		tr.BlocksTouched = 2
	}

	switch cls := f.Blem.Classify(stored.Blocks[0][:]); cls {
	case blem.ClassCompressed:
		var packed [blem.MaxPayload]byte
		copy(packed[:], blem.PayloadOf(stored.Blocks[0][:]))
		f.Scr.Apply(lineAddr, packed[:])
		if err := compress.DecodePacked(dst, packed[:]); err != nil {
			return tr, fmt.Errorf("core: corrupt compressed block at %d: %w", lineAddr, err)
		}
	case blem.ClassUncompressed, blem.ClassCollision:
		if tr.PredictedCompressed {
			tr.Mispredicted = true
			tr.BlocksTouched++ // corrective fetch of the second block
		}
		copy(dst[:], stored.Blocks[0][:])
		copy(dst[SubRankBlock:], stored.Blocks[1][:])
		if cls == blem.ClassCollision {
			tr.RAAccess = true
			*dst = f.Blem.LoadCollided(lineAddr, dst[:])
		}
		f.Scr.Apply(lineAddr, dst[:])
	}
	if tr.PredictedCompressed != tr.ActualCompressed {
		tr.Mispredicted = true
	}
	if f.Copr != nil {
		f.Copr.Update(lineAddr*LineSize, stored.Compressed)
	}
	return tr, nil
}

// StorageOverheadBytes reports the framework's SRAM cost: the predictor
// tables plus the CID register (the paper's "368KB of SRAM and a single
// register").
func (f *Framework) StorageOverheadBytes() int {
	if f.Copr == nil {
		return 2
	}
	return f.Copr.StorageBytes() + 2
}
