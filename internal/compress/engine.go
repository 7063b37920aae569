package compress

import "fmt"

// Algorithm identifies which codec produced a compressed line.
type Algorithm uint8

// The algorithms the engine can select between. The paper's controller
// "compresses a memory block using both BDI and FPC, and selects the one
// with the best compression ratio" (§V).
const (
	AlgoNone Algorithm = iota // stored uncompressed
	AlgoBDI
	AlgoFPC
	// AlgoCPack is the dictionary codec of the extended engine — the
	// "CID selects among multiple algorithms" extension of §IV-A5.
	AlgoCPack
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoNone:
		return "none"
	case AlgoBDI:
		return "bdi"
	case AlgoFPC:
		return "fpc"
	case AlgoCPack:
		return "cpack"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Compressed is the engine's output for one cacheline.
type Compressed struct {
	Algo    Algorithm
	Payload []byte // codec output for AlgoBDI/AlgoFPC; the raw line for AlgoNone
}

// fpcTag and cpackTag mark packed FPC/CPack payloads. BDI payloads are
// self-tagging: their first byte is a BDIEncoding in [0, 7], so any first
// byte >= 8 is free.
const (
	fpcTag   = 8
	cpackTag = 9
)

// Pack serializes the compressed line into the byte string stored in
// memory. BDI output is stored as-is (its leading tag byte is in [0,7]);
// FPC output gets a one-byte tag so the decompressor can identify the
// algorithm from the stored bits alone — the in-line equivalent of the
// paper's "use the 15th CID bit to identify the compression algorithm"
// extension (§IV-A5). AlgoNone packs the raw 64-byte line.
func (c Compressed) Pack() []byte {
	switch c.Algo {
	case AlgoFPC, AlgoCPack:
		out := make([]byte, 1+len(c.Payload))
		out[0] = fpcTag
		if c.Algo == AlgoCPack {
			out[0] = cpackTag
		}
		copy(out[1:], c.Payload)
		return out
	default:
		return c.Payload
	}
}

// splitPacked identifies the algorithm of a packed payload from its
// leading byte and returns the codec payload, aliasing packed.
func splitPacked(packed []byte) (Algorithm, []byte, error) {
	if len(packed) == 0 {
		return AlgoNone, nil, fmt.Errorf("compress: empty packed payload")
	}
	switch {
	case packed[0] == fpcTag:
		return AlgoFPC, packed[1:], nil
	case packed[0] == cpackTag:
		return AlgoCPack, packed[1:], nil
	case packed[0] < fpcTag:
		return AlgoBDI, packed, nil
	default:
		return AlgoNone, nil, fmt.Errorf("compress: unknown packed tag %d", packed[0])
	}
}

// Unpack parses a packed payload (the output of Pack for AlgoBDI/AlgoFPC)
// back into a Compressed value that owns a copy of the payload.
func Unpack(packed []byte) (Compressed, error) {
	algo, payload, err := splitPacked(packed)
	if err != nil {
		return Compressed{}, err
	}
	return Compressed{Algo: algo, Payload: append([]byte(nil), payload...)}, nil
}

// DecodePacked decompresses a packed payload into dst without copying or
// allocating: Unpack and Decompress in one step, for callers that own the
// destination line.
func DecodePacked(dst *[LineSize]byte, packed []byte) error {
	algo, payload, err := splitPacked(packed)
	if err != nil {
		return err
	}
	return decode(dst, algo, payload)
}

// decode runs the one decoder algo names.
func decode(dst *[LineSize]byte, algo Algorithm, payload []byte) error {
	switch algo {
	case AlgoBDI:
		return bdiDecode(dst, payload)
	case AlgoFPC:
		return fpcDecode(dst, payload)
	case AlgoCPack:
		return cpackDecode(dst, payload)
	default:
		return fmt.Errorf("compress: unknown algorithm %v", algo)
	}
}

// decodeLine decodes into a freshly allocated line: the exported
// XDecompress form of each codec.
func decodeLine(algo Algorithm, payload []byte) ([]byte, error) {
	out := new([LineSize]byte)
	if err := decode(out, algo, payload); err != nil {
		return nil, err
	}
	return out[:], nil
}

// Engine is the compression-decompression engine in the memory controller
// (paper Fig. 3). Latency is modeled by the memory controller (1 cycle per
// the paper, §V); the engine itself is purely functional.
type Engine struct {
	// Target is the payload size a line must reach to fit one sub-rank
	// alongside the Metadata-Header. The paper's configuration is 30
	// bytes (32-byte sub-rank minus the 2-byte CID/XID header).
	Target int
	// EnableCPack adds the dictionary codec to the selection (see
	// NewExtendedEngine).
	EnableCPack bool
}

// NewEngine returns an engine with the paper's 30-byte target and the
// paper's algorithm pair (BDI + FPC, §V).
func NewEngine() *Engine { return &Engine{Target: 30} }

// NewExtendedEngine returns an engine that also runs the CPack dictionary
// codec — the multi-algorithm configuration the CID information bits of
// §IV-A5 / Table I make addressable.
func NewExtendedEngine() *Engine { return &Engine{Target: 30, EnableCPack: true} }

// Choose is the engine's one selection rule, decided from the
// allocation-free size passes alone: the codec whose packed form is
// smallest and at most Target bytes, or AlgoNone. BDI wins ties — FPC and
// CPack pay one tag byte in packed form (see Pack) and must come out
// strictly smaller than the winner so far. size is the packed size,
// LineSize for AlgoNone.
func (e *Engine) Choose(line []byte) (algo Algorithm, size int) {
	algo, size, _ = e.choose(line)
	return algo, size
}

// choose is Choose, keeping the BDI plan for the encoder. Every size pass
// is bounded by what it must come in at to be chosen: bound is the largest
// packed size that still wins, Target until a codec wins and one under the
// winner from then on. A pass stops as soon as it is over its bound — it
// could not have been chosen — so each returns LineSize or a winner.
func (e *Engine) choose(line []byte) (algo Algorithm, size int, plan bdiPlan) {
	algo, size = AlgoNone, LineSize
	bound := min(e.Target, LineSize)
	if plan = bdiFit(line, min(bound, LineSize-1)); plan.enc != BDIUncompressed {
		algo, size = AlgoBDI, plan.size
		bound = size - 1
	}
	if s := fpcSize(line, bound-1); s < LineSize { // bound-1: the tag byte
		algo, size = AlgoFPC, s+1
		bound = s
	}
	if e.EnableCPack {
		if s := cpackSize(line, bound-1); s < LineSize {
			algo, size = AlgoCPack, s+1
		}
	}
	return algo, size, plan
}

// AppendPacked appends the packed form of line (what Compress(line).Pack()
// returns) to dst and names the algorithm chosen. Only the winning encoder
// runs, a BDI winner from the plan that chose it; for AlgoNone dst comes
// back untouched. With Target spare bytes in dst it allocates nothing.
func (e *Engine) AppendPacked(dst, line []byte) ([]byte, Algorithm) {
	algo, _, plan := e.choose(line)
	switch algo {
	case AlgoBDI:
		dst = bdiEncode(dst, line, plan)
	case AlgoFPC:
		dst, _ = fpcAppend(append(dst, fpcTag), line)
	case AlgoCPack:
		dst, _ = cpackAppend(append(dst, cpackTag), line)
	}
	return dst, algo
}

// Compress selects the codec with Choose and runs it. When no codec
// reaches the target, the result carries AlgoNone with a copy of the raw
// line so callers can store it directly.
func (e *Engine) Compress(line []byte) Compressed {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: Engine.Compress needs a %d-byte line, got %d", LineSize, len(line)))
	}
	payload, algo := e.AppendPacked(make([]byte, 0, LineSize), line)
	switch algo {
	case AlgoNone:
		payload = append(payload, line...)
	case AlgoFPC, AlgoCPack:
		payload = payload[1:] // Pack re-adds the tag byte
	}
	return Compressed{Algo: algo, Payload: payload}
}

// Decompress reverses Compress.
func (e *Engine) Decompress(c Compressed) ([]byte, error) {
	if c.Algo == AlgoNone {
		if len(c.Payload) != LineSize {
			return nil, fmt.Errorf("compress: uncompressed payload is %d bytes, want %d", len(c.Payload), LineSize)
		}
		return append([]byte(nil), c.Payload...), nil
	}
	return decodeLine(c.Algo, c.Payload)
}

// Compressible reports whether line compresses to at most the engine's
// target payload under any of its codecs. This is the predicate the whole
// paper is built on ("compressible to 30 bytes", Fig. 4). Like Choose it
// allocates nothing.
func (e *Engine) Compressible(line []byte) bool {
	algo, _ := e.Choose(line)
	return algo != AlgoNone
}
