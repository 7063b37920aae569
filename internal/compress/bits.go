package compress

import "fmt"

// BitWriter serializes values MSB-first into a byte buffer. FPC's and
// CPack's variable width codes are packed with it. It fills buf in place
// and replaces it with a larger copy only when it runs out, so a writer
// started on a buffer that holds the codec's worst case (FPC 70 bytes,
// CPack 68) never allocates; the zero value grows a buffer of its own.
type BitWriter struct {
	buf   []byte // bytes past the written bits are scratch
	nbits int
}

// WriteBits appends the low n bits of v, most significant bit first: it
// tops up the partly filled last byte, then stores whole bytes, then the
// zero-padded remainder.
func (w *BitWriter) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("compress: WriteBits width %d out of range", n))
	}
	v &= maskBits(n)
	i := w.nbits >> 3    // the byte the next bit lands in
	free := -w.nbits & 7 // its unwritten low bits, 0 when it is a fresh byte
	w.nbits += n
	if end := (w.nbits + 7) >> 3; end > len(w.buf) {
		// A fresh slice, not append: storing append(w.buf) through w
		// would make every caller's stack buffer escape.
		grown := make([]byte, max(2*len(w.buf), LineSize, end))
		copy(grown, w.buf)
		w.buf = grown
	}
	if free > 0 {
		if n <= free {
			w.buf[i] |= byte(v << uint(free-n))
			return
		}
		n -= free
		w.buf[i] |= byte(v >> uint(n))
		i++
	}
	for ; n >= 8; n -= 8 {
		w.buf[i] = byte(v >> uint(n-8))
		i++
	}
	if n > 0 {
		w.buf[i] = byte(v << uint(8-n))
	}
}

// Bytes returns the packed buffer; the final byte is zero-padded.
func (w *BitWriter) Bytes() []byte { return w.buf[:(w.nbits+7)>>3] }

// Len reports the number of bits written.
func (w *BitWriter) Len() int { return w.nbits }

// BitReader consumes values MSB-first from a byte buffer.
type BitReader struct {
	buf []byte
	pos int
}

// NewBitReader wraps buf for reading.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits consumes n bits and returns them right-aligned. It returns an
// error when the buffer is exhausted.
func (r *BitReader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("compress: ReadBits width %d out of range", n)
	}
	if r.pos+n > len(r.buf)*8 {
		return 0, fmt.Errorf("compress: bitstream exhausted (need %d bits at offset %d, have %d)", n, r.pos, len(r.buf)*8)
	}
	var v uint64
	for n > 0 {
		avail := 8 - r.pos&7 // unread low bits of the current byte
		take := min(avail, n)
		b := uint64(r.buf[r.pos>>3]) & maskBits(avail)
		v = v<<uint(take) | b>>uint(avail-take)
		r.pos += take
		n -= take
	}
	return v, nil
}

// signExtend interprets the low `bits` bits of v as a two's-complement
// value and returns it sign-extended to int64.
func signExtend(v uint64, bits int) int64 {
	shift := uint(64 - bits)
	return int64(v<<shift) >> shift
}

// fitsSigned reports whether the signed value x is representable in `bits`
// two's-complement bits.
func fitsSigned(x int64, bits int) bool {
	if bits >= 64 {
		return true
	}
	limit := int64(1) << uint(bits-1)
	return x >= -limit && x < limit
}
