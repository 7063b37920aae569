package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
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

// AppendOp appends one /v1/batch request op. The caller joins ops: with
// ',' inside '[' ']', or with '\n' for the NDJSON form.
func AppendOp(dst []byte, op Op) []byte {
	dst = appendString(append(dst, `{"op":`...), op.Op)
	dst = append(dst, `,"addr":`...)
	if op.Addr == nil {
		dst = append(dst, "null"...)
	} else {
		dst = strconv.AppendUint(dst, *op.Addr, 10)
	}
	return append(appendData(dst, op.Data), '}')
}

// AppendLine appends a /v1/read or /v1/write body (request or answer).
func AppendLine(dst []byte, l Line) []byte {
	return AppendOpResult(dst, OpResult{Addr: l.Addr, Data: l.Data, OK: l.OK})
}

// AppendOpResult appends one batch result.
func AppendOpResult(dst []byte, r OpResult) []byte {
	dst = strconv.AppendUint(append(dst, `{"addr":`...), r.Addr, 10)
	dst = appendData(dst, r.Data)
	if r.OK {
		dst = append(dst, `,"ok":true`...)
	}
	if r.Error != "" {
		dst = appendString(append(dst, `,"error":`...), r.Error)
	}
	return append(dst, '}')
}

// AppendBatch appends the /v1/batch answer; Results is never null.
func AppendBatch(dst []byte, b Batch) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range b.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendOpResult(dst, r)
	}
	dst = append(dst, `],"failed":`...)
	return append(strconv.AppendInt(dst, int64(b.Failed), 10), '}')
}

// appendData appends the omitempty "data" member.
func appendData(dst, data []byte) []byte {
	if len(data) == 0 {
		return dst
	}
	dst = append(dst, `,"data":"`...)
	return append(base64.StdEncoding.AppendEncode(dst, data), '"')
}

// appendString appends s as a JSON string: quotes, backslashes and
// control bytes escaped, each invalid UTF-8 byte replaced by U+FFFD (as
// encoding/json does), everything else verbatim.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = fmt.Appendf(dst, `\u%04x`, c)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			dst = utf8.AppendRune(dst, r) // RuneError encodes as U+FFFD
			i += size - 1
		}
	}
	return append(dst, '"')
}

// --- scanner ---------------------------------------------------------------

// ErrEmptyBody reports a /v1/batch request with no op and no '[' in it.
var ErrEmptyBody = errors.New("empty batch body")

// Scanner reads the data-path bodies from a byte slice. Reset it on a
// body, then either iterate (Next over a /v1/batch request, NextResult
// over its answer) or read the single object a /v1/read or /v1/write
// exchange carries (LineReq, Line). The zero value is ready for Reset.
//
// The canonical form — the bytes the Append functions emit, with
// whitespace allowed around the body and between array elements — it
// matches by hand, without reflection and without allocating. At the
// first byte outside that form the body goes to encoding/json, which
// reads it from the start, passes over the elements already yielded, and
// settles everything else: the values and the errors.
//
// A line payload is base64-decoded into the slot the caller passes: on
// either path a 64-byte payload lands there and Data aliases it; any
// other length gets a slice of its own, so a wrong-length write still
// reaches the engine with its real length.
type Scanner struct {
	b []byte
	i int
	n int // elements the canonical matcher has matched

	started bool
	array   bool // Next: the body is one '[' ... ']'
	done    bool
	checked bool // NextResult: the whole answer was matched once, dry
	dry     bool // match without decoding
	err     error

	addr uint64 // what Op.Addr and LineReq.Addr point at

	// The encoding/json path, once taken.
	dec      *json.Decoder // Next
	fallback bool          // NextResult, which yields from results
	results  []OpResult
}

// Reset points the scanner at body, which it reads and never modifies.
func (s *Scanner) Reset(body []byte) { *s = Scanner{b: body} }

// Err reports why iteration stopped early; nil after a clean end.
func (s *Scanner) Err() error { return s.err }

// Next reads the next op of a /v1/batch request — one JSON array of op
// objects, or op objects one after another (NDJSON) — and reports whether
// there was one. op.Addr may point into the scanner and op.Data may alias
// slot; both are overwritten by the next call.
func (s *Scanner) Next(op *Op, slot *[LineSize]byte) bool {
	switch {
	case s.err != nil || s.done:
		return false
	case s.dec != nil || !s.nextOp(op, slot):
		return s.decode(op, slot)
	}
	return s.err == nil && !s.done
}

// nextOp matches the canonical request one step further: the next op,
// the end of the body (s.done), or an empty body (s.err). It reports
// false at the first byte outside the form.
func (s *Scanner) nextOp(op *Op, slot *[LineSize]byte) bool {
	s.ws()
	if !s.started {
		s.started = true
		if s.i == len(s.b) {
			s.err = ErrEmptyBody
			return true
		}
		s.array = s.lit("[")
		s.ws()
	}
	switch {
	case s.array && s.lit("]"):
		s.done = s.end()
		return s.done
	case s.array && s.n > 0 && !s.lit(","):
		return false
	case !s.array && s.i == len(s.b):
		s.done = true
		return true
	}
	s.ws()
	name := "read"
	if !s.lit(`{"op":"read","addr":`) {
		if name = "write"; !s.lit(`{"op":"write","addr":`) {
			return false
		}
	}
	var r OpResult
	if !s.tail(&r, slot) {
		return false
	}
	s.addr, s.n = r.Addr, s.n+1
	*op = Op{Op: name, Addr: &s.addr, Data: r.Data}
	return true
}

// decode is Next on the encoding/json path. A Decoder reads the body from
// its start, passes over the ops already yielded, then yields one op per
// call, so a caller's cap still binds op by op and a tail past it is
// never read.
func (s *Scanner) decode(op *Op, slot *[LineSize]byte) bool {
	if s.dec == nil {
		// The matcher has read these bytes as JSON, so neither call fails.
		s.dec = json.NewDecoder(bytes.NewReader(s.b))
		if s.array {
			_, _ = s.dec.Token()
		}
		for range s.n {
			_ = s.dec.Decode(new(Op))
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
		// A fresh value per op: one from the caller would escape.
		v := new(Op)
		if err = s.dec.Decode(v); err == nil {
			*op = *v
			inSlot(&op.Data, slot)
			return true
		}
	}
	s.done = true
	if err != io.EOF {
		s.err = err
	}
	return false
}

// NextResult reads the next result of a /v1/batch answer and reports
// whether there was one. r.Data may alias slot.
func (s *Scanner) NextResult(r *OpResult, slot *[LineSize]byte) bool {
	if !s.checked {
		// encoding/json decodes a repeated "results" member over the
		// first, so nothing is yielded before the whole answer is known
		// canonical: a dry pass matches it without decoding a payload.
		s.checked, s.dry = true, true
		for s.nextResult(r, nil) && !s.done {
		}
		canonical := s.done
		s.i, s.n, s.started, s.done, s.dry = 0, 0, false, false, false
		if !canonical {
			s.unmarshal()
		}
	}
	if s.err != nil || s.done {
		return false
	}
	if !s.fallback {
		if s.nextResult(r, slot) {
			return !s.done
		}
		s.unmarshal()
	}
	if s.err != nil || len(s.results) == 0 {
		s.done = true
		return false
	}
	*r, s.results = s.results[0], s.results[1:]
	inSlot(&r.Data, slot)
	return true
}

// nextResult matches the canonical answer one step further: the next
// result, or the end of the body (s.done).
func (s *Scanner) nextResult(r *OpResult, slot *[LineSize]byte) bool {
	s.ws()
	if !s.started {
		s.started = true
		if !s.lit(`{"results":[`) {
			return false
		}
		s.ws()
	}
	switch {
	case s.lit(`],"failed":`):
		failed, ok := s.uint()
		s.done = ok && failed <= math.MaxInt && s.lit("}") && s.end()
		return s.done
	case s.n > 0 && !s.lit(","):
		return false
	}
	s.ws()
	if !s.lit(`{"addr":`) || !s.tail(r, slot) {
		return false
	}
	s.n++
	return true
}

// unmarshal is NextResult on the encoding/json path: the whole answer,
// less the results already yielded.
func (s *Scanner) unmarshal() {
	var b Batch
	s.fallback, s.err = true, json.Unmarshal(s.b, &b)
	s.results = b.Results[min(s.n, len(b.Results)):]
}

// LineReq reads a whole /v1/read or /v1/write request body. req.Addr may
// point into the scanner.
func (s *Scanner) LineReq(req *LineReq, slot *[LineSize]byte) error {
	var r OpResult
	if s.line(&r, slot) {
		s.addr = r.Addr
		*req = LineReq{Addr: &s.addr, Data: r.Data}
		return nil
	}
	v := new(LineReq)
	s.err = json.Unmarshal(s.b, v)
	*req = *v
	inSlot(&req.Data, slot)
	return s.err
}

// Line reads a whole /v1/read or /v1/write answer body.
func (s *Scanner) Line(l *Line, slot *[LineSize]byte) error {
	var r OpResult
	if s.line(&r, slot) {
		*l = Line{Addr: r.Addr, Data: r.Data, OK: r.OK}
		return nil
	}
	v := new(Line)
	s.err = json.Unmarshal(s.b, v)
	*l = *v
	inSlot(&l.Data, slot)
	return s.err
}

// line matches a canonical single-object body. A member the target type
// does not declare ("ok" in a request, "error" anywhere) is one
// encoding/json ignores, so it may stand.
func (s *Scanner) line(r *OpResult, slot *[LineSize]byte) bool {
	s.ws()
	return s.lit(`{"addr":`) && s.tail(r, slot) && s.end()
}

// tail matches the rest of an object after `{…"addr":` as AppendOp and
// AppendOpResult render it: the address, then "data", "ok" and "error",
// each optional, in that order, and the closing brace.
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
	r.OK = s.lit(`,"ok":true`)
	if s.lit(`,"error":`) {
		msg, ok := s.str()
		if !ok {
			return false
		}
		if !s.dry {
			r.Error = string(msg)
		}
	}
	return s.lit("}")
}

// data matches a base64 string. A whole line — lineChars characters
// ending in "==", which decode to at most LineSize bytes whatever stands
// before the padding — is decoded into slot; anything else into a slice
// of its own. A dry match decodes nothing.
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
	if !ok || s.dry {
		return nil, ok
	}
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(dst, src)
	return dst[:n], err == nil
}

// inSlot moves a 64-byte payload encoding/json decoded into the caller's
// slot, where the canonical path decodes it.
func inSlot(data *[]byte, slot *[LineSize]byte) {
	if slot != nil && len(*data) == LineSize {
		*data = slot[:copy(slot[:], *data)]
	}
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
