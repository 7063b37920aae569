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
// encoders written against them, and the Compress that ran every encoder
// to completion and compared the outputs. The differential tests and
// FuzzEngineCompressMatchesReference hold the production path to them
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

// refCompress is the selection Engine.Compress made before Choose: every
// encoder runs, the smallest output that reaches the target wins.
func refCompress(e *Engine, line []byte) Compressed {
	best := Compressed{Algo: AlgoNone}
	if bdi, ok := BDICompress(line); ok && len(bdi) <= e.Target {
		best = Compressed{Algo: AlgoBDI, Payload: bdi}
	}
	if fpc, ok := refFPCCompress(line); ok && len(fpc)+1 <= e.Target &&
		(best.Algo == AlgoNone || len(fpc)+1 < best.Size()) {
		best = Compressed{Algo: AlgoFPC, Payload: fpc}
	}
	if e.EnableCPack {
		if cp, ok := refCPackCompress(line); ok && len(cp)+1 <= e.Target &&
			(best.Algo == AlgoNone || len(cp)+1 < best.Size()) {
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
	if algo, size := e.Choose(line); algo != want.Algo || size != want.Size() {
		t.Fatalf("Choose = %v/%d, reference %v/%d", algo, size, want.Algo, want.Size())
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

func TestCompressMatchesReference(t *testing.T) {
	lines := testLines(400)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 400; i++ {
		lines = append(lines, genCompressibleCandidate(rng))
	}
	// Targets beside the paper's 30: nothing fits, and everything short
	// of a raw line does.
	for _, e := range []*Engine{NewEngine(), NewExtendedEngine(), {Target: 0, EnableCPack: true}, {Target: LineSize, EnableCPack: true}} {
		for _, line := range lines {
			checkCompressMatchesReference(t, e, line)
		}
	}
}

func TestCodecsMatchReference(t *testing.T) {
	for i, line := range testLines(400) {
		want, wantOK := refFPCCompress(line)
		if got, ok := FPCCompress(line); ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("line %d: FPCCompress = %x/%v, reference %x/%v", i, got, ok, want, wantOK)
		}
		want, wantOK = refCPackCompress(line)
		if got, ok := CPackCompress(line); ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("line %d: CPackCompress = %x/%v, reference %x/%v", i, got, ok, want, wantOK)
		}
	}
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
			if r.Remaining() != len(ref.buf)*8-refR.pos {
				t.Fatalf("trial %d read %d: Remaining=%d, reference %d", trial, i, r.Remaining(), len(ref.buf)*8-refR.pos)
			}
		}
	}
}
