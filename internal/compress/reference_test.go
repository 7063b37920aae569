package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The implementations the word-wise, size-first codec path replaced, kept
// as oracles: the bit-at-a-time writer and reader, the FPC and CPack
// encoders written against them, the BDI encoder that tried all six shapes
// a byte at a time, and the Compress that ran every encoder to completion
// and compared the outputs. The differential tests and the two
// FuzzEngine…MatchesReference targets hold the production path to them
// byte for byte.

type refBitWriter struct {
	buf   []byte
	nbits int
}

func (w *refBitWriter) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("compress: WriteBits width %d out of range", n))
	}
	for i := n - 1; i >= 0; i-- {
		bit := (v >> uint(i)) & 1
		byteIdx := w.nbits >> 3
		if byteIdx == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if bit != 0 {
			w.buf[byteIdx] |= 1 << uint(7-w.nbits&7)
		}
		w.nbits++
	}
}

type refBitReader struct {
	buf []byte
	pos int
}

func (r *refBitReader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("compress: ReadBits width %d out of range", n)
	}
	if r.pos+n > len(r.buf)*8 {
		return 0, fmt.Errorf("compress: bitstream exhausted (need %d bits at offset %d, have %d)", n, r.pos, len(r.buf)*8)
	}
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := r.pos >> 3
		bit := (r.buf[byteIdx] >> uint(7-r.pos&7)) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

func refFPCCompress(line []byte) ([]byte, bool) {
	w := refBitWriter{buf: make([]byte, 0, 70)}
	for i := 0; i < fpcWords; i++ {
		word := binary.LittleEndian.Uint32(line[i*4:])
		pat, data := fpcClassify(word)
		w.WriteBits(uint64(pat), 3)
		if bits := fpcDataBits[pat]; bits > 0 {
			w.WriteBits(uint64(data), bits)
		}
	}
	return w.buf, len(w.buf) < LineSize
}

func refCPackCompress(line []byte) ([]byte, bool) {
	w := refBitWriter{buf: make([]byte, 0, 68)}
	var dictArr [cpackDictSize]uint32
	dict := dictArr[:0]
	for i := 0; i < fpcWords; i++ {
		word := binary.LittleEndian.Uint32(line[i*4:])
		switch {
		case word == 0:
			w.WriteBits(0b00, 2)
		case word&0xFFFFFF00 == 0:
			w.WriteBits(0b1110, 4)
			w.WriteBits(uint64(word), 8)
		default:
			if idx, kind := cpackMatch(dict, word); kind == 2 {
				w.WriteBits(0b10, 2)
				w.WriteBits(uint64(idx), 4)
			} else if kind == 1 {
				w.WriteBits(0b1101, 4)
				w.WriteBits(uint64(idx), 4)
				w.WriteBits(uint64(word&0xFF), 8)
			} else if kind == 0 {
				w.WriteBits(0b1100, 4)
				w.WriteBits(uint64(idx), 4)
				w.WriteBits(uint64(word&0xFFFF), 16)
			} else {
				w.WriteBits(0b01, 2)
				w.WriteBits(uint64(word), 32)
			}
			dict = cpackPush(dict, word)
		}
	}
	return w.buf, len(w.buf) < LineSize
}

// refBDIShapes is the reference's own copy of the six base-delta shapes,
// in encoded-size order.
var refBDIShapes = []struct {
	enc        BDIEncoding
	seg, delta int
}{{BDIB8D1, 8, 1}, {BDIB4D1, 4, 1}, {BDIB8D2, 8, 2}, {BDIB2D1, 2, 1}, {BDIB4D2, 4, 2}, {BDIB8D4, 8, 4}}

func refReadSeg(line []byte, off, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(line[off+i])
	}
	return v
}

func refWriteSeg(out []byte, off, size int, v uint64) {
	for i := 0; i < size; i++ {
		out[off+i] = byte(v >> uint(8*i))
	}
}

// refBDICompress is the BDI encoder the plan-once, word-wise one replaced:
// zeros, rep, then every shape in size order with no bound, each segment
// read, tested with signExtend/fitsSigned and written a byte at a time.
func refBDICompress(line []byte) ([]byte, bool) {
	zeros, rep := true, true
	for i, b := range line {
		zeros = zeros && b == 0
		rep = rep && b == line[i%8]
	}
	switch {
	case zeros:
		return []byte{byte(BDIZeros)}, true
	case rep:
		return append([]byte{byte(BDIRep)}, line[:8]...), true
	}
	for _, s := range refBDIShapes {
		nseg, segBits, deltaBits := LineSize/s.seg, s.seg*8, s.delta*8
		baseOff := 1 + nseg/8
		deltaOff := baseOff + s.seg
		out := make([]byte, deltaOff+nseg*s.delta)
		out[0] = byte(s.enc)
		var base uint64
		haveBase, fits := false, true
		for i := 0; i < nseg && fits; i++ {
			v := refReadSeg(line, i*s.seg, s.seg)
			if fitsSigned(signExtend(v, segBits), deltaBits) {
				out[1+i/8] |= 1 << uint(i%8)
				refWriteSeg(out, deltaOff+i*s.delta, s.delta, v)
				continue
			}
			if !haveBase {
				base, haveBase = v, true
				refWriteSeg(out, baseOff, s.seg, base)
			}
			delta := (v - base) & maskBits(segBits)
			fits = fitsSigned(signExtend(delta, segBits), deltaBits)
			refWriteSeg(out, deltaOff+i*s.delta, s.delta, delta)
		}
		if fits {
			return out, true
		}
	}
	return nil, false
}

// refCompress is the selection Engine.Compress made before Choose: every
// encoder runs, the smallest output that reaches the target wins.
func refCompress(e *Engine, line []byte) Compressed {
	best := Compressed{Algo: AlgoNone}
	if bdi, ok := refBDICompress(line); ok && len(bdi) <= e.Target {
		best = Compressed{Algo: AlgoBDI, Payload: bdi}
	}
	if fpc, ok := refFPCCompress(line); ok && len(fpc)+1 <= e.Target &&
		(best.Algo == AlgoNone || len(fpc)+1 < len(best.Pack())) {
		best = Compressed{Algo: AlgoFPC, Payload: fpc}
	}
	if e.EnableCPack {
		if cp, ok := refCPackCompress(line); ok && len(cp)+1 <= e.Target &&
			(best.Algo == AlgoNone || len(cp)+1 < len(best.Pack())) {
			best = Compressed{Algo: AlgoCPack, Payload: cp}
		}
	}
	if best.Algo == AlgoNone {
		best.Payload = append([]byte(nil), line...)
	}
	return best
}

// checkCompressMatchesReference holds every production entry point that
// selects or encodes to refCompress on one line.
func checkCompressMatchesReference(t *testing.T, e *Engine, line []byte) {
	t.Helper()
	want := refCompress(e, line)
	got := e.Compress(line)
	if got.Algo != want.Algo || !bytes.Equal(got.Payload, want.Payload) || !bytes.Equal(got.Pack(), want.Pack()) {
		t.Fatalf("Compress = %v %x, reference %v %x", got.Algo, got.Payload, want.Algo, want.Payload)
	}
	if algo, size := e.Choose(line); algo != want.Algo || size != len(want.Pack()) {
		t.Fatalf("Choose = %v/%d, reference %v/%d", algo, size, want.Algo, len(want.Pack()))
	}
	if e.Compressible(line) != (want.Algo != AlgoNone) {
		t.Fatalf("Compressible = %v, reference chose %v", e.Compressible(line), want.Algo)
	}
	prefix := []byte{0xA5}
	wantPacked := prefix
	if want.Algo != AlgoNone {
		wantPacked = append(wantPacked, want.Pack()...)
	}
	if packed, algo := e.AppendPacked(prefix, line); algo != want.Algo || !bytes.Equal(packed, wantPacked) {
		t.Fatalf("AppendPacked = %v %x, reference %v %x", algo, packed, want.Algo, wantPacked)
	}
	if want.Algo == AlgoNone {
		return
	}
	var dec [LineSize]byte
	if err := DecodePacked(&dec, want.Pack()); err != nil || !bytes.Equal(dec[:], line) {
		t.Fatalf("DecodePacked of the reference's %v payload: err=%v", want.Algo, err)
	}
}

// shapedLine draws a line around one base-delta shape: every segment the
// base plus a delta of the shape's width or an immediate of that width,
// the base often short or ending in zero bytes so the FPC size of the same
// line ranges widely.
func shapedLine(rng *rand.Rand, seg, delta int) []byte {
	l := make([]byte, LineSize)
	base := rng.Uint64()
	if rng.Intn(2) == 0 {
		base &^= maskBits(8 * rng.Intn(seg))
	}
	if rng.Intn(2) == 0 {
		base &= maskBits(8 * (1 + rng.Intn(seg)))
	}
	span := int64(1) << uint(8*delta-1)
	immediates := rng.Intn(5)
	for i := 0; i < LineSize/seg; i++ {
		d := uint64(rng.Int63n(2*span) - span)
		if rng.Intn(3) == 0 {
			d = uint64(rng.Int63n(16) - 8)
		}
		if rng.Intn(4) >= immediates {
			d += base
		}
		refWriteSeg(l, i*seg, seg, d)
	}
	return l
}

// vocabLine draws a dictionary-friendly line whose few distinct words are
// often ones FPC also codes briefly, so CPack's size lands near the other
// codecs'.
func vocabLine(rng *rand.Rand) []byte {
	vocab := make([]uint32, 1+rng.Intn(4))
	for i := range vocab {
		switch vocab[i] = rng.Uint32(); rng.Intn(4) {
		case 0:
			vocab[i] <<= 16
		case 1:
			vocab[i] = uint32(int32(int16(vocab[i])))
		case 2:
			vocab[i] = vocab[i] & 0xFF * 0x01010101
		}
	}
	l := make([]byte, LineSize)
	for i := 0; i < fpcWords; i++ {
		w := vocab[rng.Intn(len(vocab))]
		switch rng.Intn(6) {
		case 0:
			w = 0
		case 1:
			w = uint32(rng.Intn(256))
		case 2:
			w ^= uint32(rng.Intn(256))
		case 3:
			w ^= uint32(rng.Intn(65536))
		}
		binary.LittleEndian.PutUint32(l[i*4:], w)
	}
	return l
}

// fpcSizedLine builds a line FPC encodes in exactly size bytes, 6 to 64:
// uncompressed words, then a 16-bit and an 8-bit one for the remainder,
// then zero words.
func fpcSizedLine(size int) []byte {
	var words [fpcWords]uint32
	data := 8*size - 3*fpcWords // data bits beside the sixteen prefixes
	i := 0
	for ; data >= 32; data -= 32 {
		words[i] = 0x9E3779B9 + uint32(i)*0x7F4A7C15
		i++
	}
	if data >= 16 {
		words[i] = 0x1234
		i++
		data -= 16
	}
	if data == 8 {
		words[i] = 0x55
	}
	l := make([]byte, LineSize)
	for i, w := range words {
		binary.LittleEndian.PutUint32(l[i*4:], w)
	}
	return l
}

// edgeLines puts one segment of an otherwise fitting line on each edge of
// every shape's delta range — the last value in, the first value out, on
// both sides — once as an immediate and once as a delta from the base.
func edgeLines() [][]byte {
	var lines [][]byte
	for _, s := range refBDIShapes {
		span := uint64(1) << uint(8*s.delta-1)
		base := 0x4142434445464748 & maskBits(8*s.seg)
		for _, edge := range []uint64{-span - 1, -span, span - 1, span} {
			for _, from := range []uint64{0, base} {
				l := make([]byte, LineSize)
				for i := 0; i < LineSize/s.seg; i++ {
					refWriteSeg(l, i*s.seg, s.seg, base+uint64(i%3))
				}
				refWriteSeg(l, 3*s.seg, s.seg, from+edge)
				lines = append(lines, l)
			}
		}
	}
	return lines
}

// boundaryLines builds the lines on which a bound that is off by one shows:
// edgeLines, zeros, rep, FPC at every size it can have, and by seeded search, for each
// base-delta shape a line that lands on it with FPC's packed size one under,
// equal to and one over the shape's, and CPack's packed size one under,
// equal to and one over the smaller of BDI's and FPC's. A cell the search
// no longer reaches fails the test rather than thinning it.
func boundaryLines(t *testing.T) [][]byte {
	t.Helper()
	lines := append(edgeLines(), make([]byte, LineSize), bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, LineSize/8))
	for size := 6; size <= LineSize; size++ {
		l := fpcSizedLine(size)
		if fpc, _ := refFPCCompress(l); len(fpc) != size {
			t.Fatalf("fpcSizedLine(%d) encodes in %d bytes", size, len(fpc))
		}
		lines = append(lines, l)
	}
	type cell struct {
		enc BDIEncoding // BDIUncompressed: the CPack cells
		rel int
	}
	missing := 3 * (len(refBDIShapes) + 1)
	found := map[cell]bool{}
	rng := rand.New(rand.NewSource(22))
	for n := 0; missing > 0; n++ {
		if n == 200000 {
			t.Fatalf("boundary search: %d of the cells not reached, have %v", missing, found)
		}
		c := cell{enc: BDIUncompressed}
		var l []byte
		if s := n % (len(refBDIShapes) + 1); s < len(refBDIShapes) {
			l = shapedLine(rng, refBDIShapes[s].seg, refBDIShapes[s].delta)
			bdi, ok := refBDICompress(l)
			if !ok {
				continue
			}
			fpc, _ := refFPCCompress(l)
			c = cell{BDIEncoding(bdi[0]), len(fpc) + 1 - len(bdi)}
		} else {
			l = vocabLine(rng)
			best := LineSize
			if bdi, ok := refBDICompress(l); ok {
				best = len(bdi)
			}
			if fpc, _ := refFPCCompress(l); len(fpc)+1 < best {
				best = len(fpc) + 1
			}
			cp, _ := refCPackCompress(l)
			c.rel = len(cp) + 1 - best
		}
		if c.rel >= -1 && c.rel <= 1 && c.enc >= BDIB8D1 && !found[c] {
			found[c] = true
			missing--
			lines = append(lines, l)
		}
	}
	return lines
}

// boundaryTargets are the targets on either side of every size a bound of
// the chooser can straddle: nothing fits, zeros (1), FPC's floor (6 and its
// packed 7), rep (9), the shapes (18, 23, 26, 39, 42), the paper's 30, and
// a raw line's 64.
var boundaryTargets = []int{0, 1, 6, 7, 8, 9, 10, 17, 18, 22, 23, 25, 26, 29, 30, 38, 39, 41, 42, 63, 64}

func TestCompressMatchesReference(t *testing.T) {
	lines := append(testLines(400), boundaryLines(t)...)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 400; i++ {
		lines = append(lines, genCompressibleCandidate(rng))
	}
	for _, target := range boundaryTargets {
		for _, e := range []*Engine{{Target: target}, {Target: target, EnableCPack: true}} {
			for _, line := range lines {
				checkCompressMatchesReference(t, e, line)
			}
		}
	}
}

func TestCodecsMatchReference(t *testing.T) {
	for _, c := range []struct {
		name          string
		ref, compress func([]byte) ([]byte, bool)
		size          func([]byte) int
	}{
		{"BDI", refBDICompress, BDICompress, BDISize},
		{"FPC", refFPCCompress, FPCCompress, FPCSize},
		{"CPack", refCPackCompress, CPackCompress, CPackSize},
	} {
		for i, line := range append(testLines(400), boundaryLines(t)...) {
			want, wantOK := c.ref(line)
			if got, ok := c.compress(line); ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("line %d: %sCompress = %x/%v, reference %x/%v", i, c.name, got, ok, want, wantOK)
			}
			if got := c.size(line); got != refSize(want, wantOK) {
				t.Fatalf("line %d: %sSize = %d, reference %d", i, c.name, got, refSize(want, wantOK))
			}
		}
	}
}

// refSize is what an XSize pass must report for a reference encoding: its
// length when it beat the raw line, LineSize when it did not.
func refSize(encoded []byte, ok bool) int {
	if ok {
		return len(encoded)
	}
	return LineSize
}

// TestBitStreamMatchesReference drives the word-wise writer and reader and
// the bit-at-a-time references with the same random (value, width)
// sequences — every width from 0 to 64, so every alignment of a field
// against the byte grid occurs — and compares them after each step. The
// writer starts on a dirty fixed buffer half the time, so both the
// in-place path and the growth path are held to the zero-padded format.
func TestBitStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		var w BitWriter
		if trial%2 == 1 {
			w.buf = bytes.Repeat([]byte{0xFF}, 1+rng.Intn(96))
		}
		var ref refBitWriter
		widths := make([]int, 1+rng.Intn(40))
		for i := range widths {
			widths[i] = rng.Intn(65)
			if rng.Intn(8) == 0 {
				widths[i] = 64 * rng.Intn(2) // the two edge widths, often
			}
			v := rng.Uint64() // bits above the width must be ignored
			w.WriteBits(v, widths[i])
			ref.WriteBits(v, widths[i])
			if w.Len() != ref.nbits || !bytes.Equal(w.Bytes(), ref.buf) {
				t.Fatalf("trial %d write %d (width %d): %d bits %x, reference %d bits %x",
					trial, i, widths[i], w.Len(), w.Bytes(), ref.nbits, ref.buf)
			}
		}
		r, refR := NewBitReader(w.Bytes()), refBitReader{buf: ref.buf}
		for i, n := range append(widths, 9) { // the 9 runs past the end
			got, err := r.ReadBits(n)
			want, wantErr := refR.ReadBits(n)
			if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("trial %d read %d (width %d): %#x/%v, reference %#x/%v", trial, i, n, got, err, want, wantErr)
			}
			if r.pos != refR.pos {
				t.Fatalf("trial %d read %d: at bit %d, reference at %d", trial, i, r.pos, refR.pos)
			}
		}
	}
}
