package wire

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
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

// maxSkipDepth bounds the nesting of a value under an unknown key.
const maxSkipDepth = 64

// The members the data-path objects are made of, one bit each in the
// order of keyNames. An object is scanned against the set its type
// declares; any other key is skipped.
const (
	kOp = 1 << iota
	kAddr
	kData
	kOK
	kError
	kResults
	kFailed
)

var keyNames = [...]string{"op", "addr", "data", "ok", "error", "results", "failed"}

// Scanner reads the data-path bodies from a byte slice without
// reflection and, on well-formed input, without allocating. Reset it on
// a body, then either iterate (Next over a /v1/batch request, NextResult
// over its answer) or scan the single object a /v1/read or /v1/write
// exchange carries (LineReq, Line). The zero value is ready for Reset.
//
// A line payload is base64-decoded straight into the slot the caller
// passes: a canonical 64-byte payload lands there and Data aliases it;
// anything else (another length, escapes, a nil slot) gets a fresh slice,
// so a wrong-length write still reaches the engine with its real length.
type Scanner struct {
	b []byte
	i int

	started bool
	array   bool // Next: the body is one '[' ... ']'; NextResult: inside "results"
	done    bool
	results bool // the answer's "results" member was seen
	err     error

	addr uint64 // what Op.Addr and LineReq.Addr point at
}

// fields is one scanned object before it is shaped into its wire type.
type fields struct {
	op      string
	addr    uint64
	hasAddr bool
	data    []byte
	ok      bool
	errMsg  string
}

// Reset points the scanner at body, which it reads and never modifies.
func (s *Scanner) Reset(body []byte) { *s = Scanner{b: body} }

// Err reports why iteration stopped early; nil after a clean end.
func (s *Scanner) Err() error { return s.err }

// Next scans the next op of a /v1/batch request — one JSON array of op
// objects, or op objects one after another (NDJSON) — and reports whether
// there was one. op.Addr points into the scanner and op.Data may alias
// slot; both are overwritten by the next call.
func (s *Scanner) Next(op *Op, slot *[LineSize]byte) bool {
	if s.err != nil || s.done {
		return false
	}
	more := true
	switch {
	case !s.started:
		s.started = true
		if s.ws(); s.i == len(s.b) {
			s.err = ErrEmptyBody
		} else if s.array = s.b[s.i] == '['; s.array {
			s.i++
			more, s.err = s.sep(']', true)
		}
	case s.array:
		more, s.err = s.sep(']', false)
	default:
		s.ws()
		more = s.i < len(s.b)
	}
	if s.err == nil && !more {
		s.done, s.err = true, s.end()
	}
	var f fields
	if s.err != nil || s.done || !s.object(&f, kOp|kAddr|kData, slot) {
		return false
	}
	*op = Op{Op: f.op, Addr: s.addrPtr(&f), Data: f.data}
	return true
}

// NextResult scans the next result of a /v1/batch answer and reports
// whether there was one. r.Data may alias slot.
func (s *Scanner) NextResult(r *OpResult, slot *[LineSize]byte) bool {
	if s.err != nil || s.done {
		return false
	}
	if s.array {
		s.array, s.err = s.sep(']', false)
	}
	if s.err == nil && !s.array {
		s.err = s.batchMembers()
	}
	var f fields
	if s.err != nil || s.done || !s.object(&f, kAddr|kData|kOK|kError, slot) {
		return false
	}
	*r = OpResult{Addr: f.addr, Data: f.data, OK: f.ok, Error: f.errMsg}
	return true
}

// LineReq scans a whole /v1/read or /v1/write request body. req.Addr
// points into the scanner.
func (s *Scanner) LineReq(req *LineReq, slot *[LineSize]byte) error {
	var f fields
	if s.object(&f, kAddr|kData, slot) {
		s.err = s.end()
	}
	*req = LineReq{Addr: s.addrPtr(&f), Data: f.data}
	return s.err
}

// Line scans a whole /v1/read or /v1/write answer body.
func (s *Scanner) Line(l *Line, slot *[LineSize]byte) error {
	var f fields
	if s.object(&f, kAddr|kData|kOK, slot) {
		s.err = s.end()
	}
	*l = Line{Addr: f.addr, Data: f.data, OK: f.ok}
	return s.err
}

func (s *Scanner) addrPtr(f *fields) *uint64 {
	if !f.hasAddr {
		return nil
	}
	s.addr = f.addr
	return &s.addr
}

// batchMembers walks the members of the answer object until it stands
// before the first element of a non-empty "results" array (s.array) or
// has consumed the whole document (s.done).
func (s *Scanner) batchMembers() error {
	first := !s.started
	if first {
		s.started = true
		if s.ws(); s.literal("null") {
			s.done = true
			return s.end()
		}
		if err := s.expect('{'); err != nil {
			return err
		}
	}
	for ; ; first = false {
		if more, err := s.sep('}', first); err != nil {
			return err
		} else if !more {
			s.done = true
			return s.end()
		}
		key, err := s.member(kResults | kFailed)
		switch {
		case err != nil:
			return err
		case s.literal("null"): // leaves either member as it was
		case key == kResults && s.results:
			return s.errorf(`second "results" member`)
		case key == kResults:
			s.results = true
			if err := s.expect('['); err != nil {
				return err
			}
			if s.array, err = s.sep(']', true); err != nil || s.array {
				return err
			}
		case key == kFailed:
			if _, err := s.integer(strconv.IntSize); err != nil {
				return err
			}
		default:
			if err := s.skip(0); err != nil {
				return err
			}
		}
	}
}

// object scans one JSON object (or null, which like encoding/json it
// takes for an empty one) against the member set keys. It reports
// success; the failure is in s.err.
func (s *Scanner) object(f *fields, keys uint8, slot *[LineSize]byte) bool {
	if s.ws(); s.literal("null") {
		return true
	}
	s.err = s.expect('{')
	for first := true; s.err == nil; first = false {
		var more bool
		if more, s.err = s.sep('}', first); s.err != nil || !more {
			break
		}
		var key uint8
		if key, s.err = s.member(keys); s.err != nil {
			break
		}
		// A null leaves a value member as it was and resets a pointer or
		// slice member: the rule encoding/json applies.
		null := key != 0 && s.literal("null")
		switch {
		case key == 0:
			s.err = s.skip(0)
		case key == kAddr:
			if f.hasAddr = !null; !null {
				var v int64
				v, s.err = s.integer(-64)
				f.addr = uint64(v)
			}
		case key == kData:
			if f.data = nil; !null {
				f.data, s.err = s.data(slot)
			}
		case null:
		case key == kOK:
			if f.ok = s.literal("true"); !f.ok && !s.literal("false") {
				s.err = s.errorf("ok wants true or false")
			}
		default: // kOp, kError
			var v []byte
			switch v, s.err = s.str(); {
			case key == kError:
				f.errMsg = string(v)
			case string(v) == "read":
				f.op = "read"
			case string(v) == "write":
				f.op = "write"
			default:
				f.op = string(v)
			}
		}
	}
	return s.err == nil
}

// data scans a base64 string. A whole line — lineChars characters ending
// in "==", which decode to at most LineSize bytes whatever stands before
// the padding — is decoded in place; anything else into a slice of its
// own.
func (s *Scanner) data(slot *[LineSize]byte) ([]byte, error) {
	// The whole line needs no string scan: if the lineChars bytes before
	// the closing quote decode to LineSize bytes, every one of them is in
	// the base64 alphabet, so they are also a well-formed JSON string
	// without escapes.
	if rest := s.b[s.i:]; slot != nil && len(rest) >= lineChars+2 && rest[0] == '"' && rest[lineChars+1] == '"' &&
		rest[lineChars] == '=' && rest[lineChars-1] == '=' {
		if n, err := base64.StdEncoding.Decode(slot[:], rest[1:lineChars+1]); err == nil && n == LineSize {
			s.i += lineChars + 2
			return slot[:], nil
		}
	}
	src, err := s.str()
	if err != nil {
		return nil, err
	}
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(dst, src)
	if err != nil {
		return nil, s.errorf("data: %v", err)
	}
	return dst[:n], nil
}

// member scans `"key":` and names the key: its bit when it is one of
// keys, 0 for any other. A key that differs from one of keys only by
// case is rejected: encoding/json would match it.
func (s *Scanner) member(keys uint8) (found uint8, err error) {
	key, err := s.str()
	if err != nil {
		return 0, err
	}
	for bit, name := range keyNames {
		if keys&(1<<bit) == 0 {
			continue
		}
		if string(key) == name {
			found = 1 << bit
			break
		}
		if bytes.EqualFold(key, []byte(name)) {
			return 0, s.errorf("key %q must be spelled %q", key, name)
		}
	}
	s.ws()
	err = s.expect(':')
	s.ws()
	return found, err
}

// sep stands between the elements of an object or array: it consumes
// the ',' before the next element (none before the first) or the closing
// byte, and reports whether an element follows.
func (s *Scanner) sep(closer byte, first bool) (bool, error) {
	s.ws()
	switch c := s.peek(); {
	case c == closer:
		s.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.i++
		s.ws()
		return true, nil
	}
	return false, s.errorf("expected ',' or %q", closer)
}

// end accepts only whitespace up to the end of the body.
func (s *Scanner) end() error {
	if s.ws(); s.i < len(s.b) {
		return s.errorf("unexpected %q after the body's value", s.b[s.i])
	}
	return nil
}

// peek returns the next byte, or 0 — valid nowhere outside a string —
// at the end of the body.
func (s *Scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *Scanner) ws() {
	for c := s.peek(); c == ' ' || c == '\n' || c == '\t' || c == '\r'; c = s.peek() {
		s.i++
	}
}

func (s *Scanner) expect(c byte) error {
	if s.peek() != c {
		return s.errorf("expected %q", c)
	}
	s.i++
	return nil
}

// literal consumes word if the body continues with it.
func (s *Scanner) literal(word string) bool {
	if s.peek() != word[0] || len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return false
	}
	s.i += len(word)
	return true
}

func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

// plain marks the bytes a string holds verbatim: ASCII, printable, and
// neither quote nor backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str scans a JSON string and returns its value: a slice of the body
// when the string is plain, the unescaped copy otherwise.
func (s *Scanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for s.i < len(s.b) && plain[s.b[s.i]] {
		s.i++
	}
	if s.peek() != '"' {
		return s.unquote(start)
	}
	s.i++
	return s.b[start : s.i-1], nil
}

// unquote is str's slow path, byte for byte what encoding/json makes of
// a string: escapes resolved, unpaired surrogates and invalid UTF-8
// replaced by U+FFFD.
func (s *Scanner) unquote(start int) ([]byte, error) {
	out := append([]byte(nil), s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return out, nil
		case c < 0x20:
			return nil, s.errorf("control byte in string")
		case c != '\\':
			r, size := utf8.DecodeRune(s.b[s.i:])
			out = utf8.AppendRune(out, r)
			s.i += size
			continue
		}
		s.i++
		esc := s.peek()
		s.i++
		if k := strings.IndexByte(`"\/bfnrt`, esc); k >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[k])
			continue
		}
		r := hex4(s.b[min(s.i, len(s.b)):])
		if esc != 'u' || r < 0 {
			return nil, s.errorf("bad escape")
		}
		s.i += 4
		if utf16.IsSurrogate(r) {
			low := rune(-1)
			if rest := s.b[s.i:]; len(rest) >= 6 && rest[0] == '\\' && rest[1] == 'u' {
				low = hex4(rest[2:])
			}
			if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
				s.i += 6
			}
		}
		out = utf8.AppendRune(out, r)
	}
	return nil, s.errorf("unterminated string")
}

// hex4 reads four hex digits, or reports -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// number scans one JSON number and returns its literal.
func (s *Scanner) number() ([]byte, error) {
	start := s.i
	digits := func() bool {
		at := s.i
		for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
			s.i++
		}
		return s.i > at
	}
	if s.peek() == '-' {
		s.i++
	}
	if s.peek() == '0' {
		s.i++
	} else if !digits() {
		return nil, s.errorf("expected a number")
	}
	if s.peek() == '.' {
		if s.i++; !digits() {
			return nil, s.errorf("bad number")
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		if s.i++; s.peek() == '+' || s.peek() == '-' {
			s.i++
		}
		if !digits() {
			return nil, s.errorf("bad number")
		}
	}
	return s.b[start:s.i], nil
}

// integer scans a number that, as for encoding/json, must be the
// decimal form of an integer of the given size: bits > 0 signed,
// bits < 0 unsigned (returned in the int64's bits).
func (s *Scanner) integer(bits int) (v int64, err error) {
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	if bits > 0 {
		v, err = strconv.ParseInt(string(lit), 10, bits)
	} else {
		var u uint64
		u, err = strconv.ParseUint(string(lit), 10, -bits)
		v = int64(u)
	}
	if err != nil {
		return 0, s.errorf("%v", err)
	}
	return v, nil
}

// skip validates and discards one JSON value of any shape.
func (s *Scanner) skip(depth int) error {
	switch c := s.peek(); {
	case depth > maxSkipDepth:
		return s.errorf("value nested deeper than %d", maxSkipDepth)
	case c == '"':
		_, err := s.str()
		return err
	case c == '{' || c == '[':
		s.i++
		for first := true; ; first = false {
			if more, err := s.sep(c+2, first); err != nil || !more { // '{'+2 == '}', '['+2 == ']'
				return err
			}
			if c == '{' {
				if _, err := s.member(0); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case s.literal("true") || s.literal("false") || s.literal("null"):
		return nil
	}
	_, err := s.number()
	return err
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
