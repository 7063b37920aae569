package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"attache/internal/core"
)

// LineSize is the payload size the codec decodes in place: a 64-byte
// line arrives as lineChars base64 characters ending in "==".
const (
	LineSize  = core.LineSize
	lineChars = (LineSize + 2) / 3 * 4
)

// --- encoder ---------------------------------------------------------------

// AppendLine appends a /v1/read or /v1/write body (request or answer).
func AppendLine(dst []byte, l Line) []byte {
	dst = strconv.AppendUint(append(dst, `{"addr":`...), l.Addr, 10)
	if len(l.Data) > 0 {
		dst = append(dst, `,"data":"`...)
		dst = append(base64.StdEncoding.AppendEncode(dst, l.Data), '"')
	}
	if l.OK {
		dst = append(dst, `,"ok":true`...)
	}
	return append(dst, '}')
}

// --- scanner ---------------------------------------------------------------

// ErrEmptyBody reports a /v1/batch request with no op and no '[' in it.
var ErrEmptyBody = errors.New("empty batch body")

// Scanner reads the JSON data-path bodies from a byte slice: Reset it on
// a body, then iterate a /v1/batch request (Next) or read a /v1/read or
// /v1/write body (LineReq). The zero value is ready for Reset.
//
// A /v1/batch request is read by encoding/json's Decoder, op by op. A
// line body in the canonical form — as AppendLine renders it, with
// whitespace around it — is matched by hand, without reflection and
// without allocating; any other line body goes to json.Unmarshal, which
// settles the values and the errors.
//
// Either way a 64-byte payload lands in the caller's slot and Data
// aliases it; any other length gets a slice of its own, so a wrong-length
// write still reaches the engine with its real length.
type Scanner struct {
	b     []byte
	i     int
	array bool // Next: the body is one '[' ... ']'
	done  bool
	err   error

	addr uint64        // what LineReq.Addr points at
	op   Op            // what Next decodes into
	dec  *json.Decoder // Next's reader, from its first call
}

// Reset points the scanner at body, which it reads and never modifies.
func (s *Scanner) Reset(body []byte) { *s = Scanner{b: body} }

// Err reports why iteration stopped early; nil after a clean end.
func (s *Scanner) Err() error { return s.err }

// Next reads the next op of a /v1/batch request — one JSON array of op
// objects, or op objects one after another (NDJSON) — and reports whether
// there was one. It reads one op per call, so a caller's cap binds op by
// op and a tail past it is never read. op.Data may alias slot.
func (s *Scanner) Next(op *Op, slot *[LineSize]byte) bool {
	if s.err != nil || s.done {
		return false
	}
	if s.dec == nil {
		if s.ws(); s.i == len(s.b) {
			s.err = ErrEmptyBody
			return false
		}
		s.array = s.b[s.i] == '['
		s.dec = json.NewDecoder(bytes.NewReader(s.b))
		if s.array {
			_, _ = s.dec.Token() // the '[' just seen
		}
	}
	var err error
	if s.array && !s.dec.More() {
		// The closing ']', then nothing but whitespace, as for Unmarshal.
		if _, err = s.dec.Token(); err == io.EOF {
			err = io.ErrUnexpectedEOF
		} else if err == nil {
			err = json.Unmarshal(s.b, new(json.RawMessage))
		}
	} else {
		// Zeroed first: Decode leaves a member the op lacks as it was.
		s.op = Op{}
		if err = s.dec.Decode(&s.op); err == nil {
			*op = s.op
			op.Data = own(op.Data, slot)
			return true
		}
	}
	s.done = true
	if err != io.EOF {
		s.err = err
	}
	return false
}

// LineReq reads a whole /v1/read or /v1/write body, a request or a read's
// answer. req.Addr may point into the scanner.
func (s *Scanner) LineReq(req *LineReq, slot *[LineSize]byte) error {
	var r OpResult
	if s.ws(); s.lit(`{"addr":`) && s.tail(&r, slot) && s.end() {
		s.addr = r.Addr
		*req = LineReq{Addr: &s.addr, Data: r.Data}
		return nil
	}
	v := new(LineReq)
	s.err = json.Unmarshal(s.b, v)
	*req = *v
	req.Data = own(req.Data, slot)
	return s.err
}

// tail matches the rest of a line body after `{"addr":` as AppendLine
// renders it: the address, then "data" if there is any, and the closing
// brace.
func (s *Scanner) tail(r *OpResult, slot *[LineSize]byte) bool {
	var ok bool
	*r = OpResult{}
	if r.Addr, ok = s.uint(); !ok {
		return false
	}
	if s.lit(`,"data":`) {
		if r.Data, ok = s.data(slot); !ok {
			return false
		}
	}
	return s.lit("}")
}

// data matches a base64 string. A whole line — lineChars characters
// ending in "==", which decode to at most LineSize bytes whatever stands
// before the padding — is decoded into slot; anything else into a slice
// of its own.
func (s *Scanner) data(slot *[LineSize]byte) ([]byte, bool) {
	// The whole line needs no string scan: if the lineChars bytes before
	// the closing quote decode to LineSize bytes, every one of them is in
	// the base64 alphabet, so they are also a JSON string without escapes.
	if rest := s.b[s.i:]; slot != nil && len(rest) >= lineChars+2 && rest[0] == '"' && rest[lineChars+1] == '"' &&
		rest[lineChars] == '=' && rest[lineChars-1] == '=' {
		if n, err := base64.StdEncoding.Decode(slot[:], rest[1:lineChars+1]); err == nil && n == LineSize {
			s.i += lineChars + 2
			return slot[:], true
		}
	}
	src, ok := s.str()
	if !ok {
		return nil, false
	}
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(dst, src)
	return dst[:n], err == nil
}

// own copies a payload into the caller's slot if it is a whole line, else
// into a slice of its own, so nothing decoded aliases the body.
func own(p []byte, slot *[LineSize]byte) []byte {
	if slot != nil && len(p) == LineSize {
		return slot[:copy(slot[:], p)]
	}
	return bytes.Clone(p)
}

// plain marks the bytes a string holds verbatim: ASCII, printable, and
// neither quote nor backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str matches a string of plain bytes and returns them.
func (s *Scanner) str() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && plain[s.b[s.i]] {
		s.i++
	}
	return s.b[start:s.i], s.lit(`"`)
}

// uint matches a plain decimal — no sign, fraction, exponent or leading
// zero — that fits 64 bits.
func (s *Scanner) uint() (uint64, bool) {
	start, v := s.i, uint64(0)
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := s.i - start
	return v, n == 1 || n > 1 && s.b[start] != '0'
}

// lit consumes word if the body continues with it.
func (s *Scanner) lit(word string) bool {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return false
	}
	s.i += len(word)
	return true
}

func (s *Scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

// end reports whether nothing but whitespace is left.
func (s *Scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// ReadBody appends everything r yields to dst. sizeHint, a Content-Length
// (negative when unknown), sizes dst up front so a body of the announced
// length is read without growing; a hint is trusted up to 1 MiB.
func ReadBody(dst []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	// One byte beyond the hint lets the read that reports EOF find room.
	dst = slices.Grow(dst, int(min(max(sizeHint, 0), 1<<20))+1)
	for {
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = slices.Grow(dst, 1)
	}
}
