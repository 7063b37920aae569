package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"

	"attache/internal/core"
)

// LineSize is the payload size a reader decodes into the caller's slot.
const LineSize = core.LineSize

// ErrEmptyBody reports a /v1/batch request with no op and no '[' in it.
var ErrEmptyBody = errors.New("empty batch body")

// Scanner reads a JSON /v1/batch request from a byte slice, op by op,
// through encoding/json's Decoder: Reset it on a body, then call Next
// until it reports false, and Err. The zero value is ready for Reset.
//
// A 64-byte payload lands in the caller's slot and Data aliases it; any
// other length gets a slice of its own, so a wrong-length write still
// reaches the engine with its real length.
type Scanner struct {
	b     []byte
	array bool // the body is one '[' ... ']'
	done  bool
	err   error

	op  Op            // what Next decodes into
	dec *json.Decoder // Next's reader, from its first call
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
		body := bytes.TrimLeft(s.b, " \t\r\n")
		if len(body) == 0 {
			s.err = ErrEmptyBody
			return false
		}
		s.array = body[0] == '['
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

// own copies a payload into the caller's slot if it is a whole line, else
// into a slice of its own, so nothing decoded aliases the body.
func own(p []byte, slot *[LineSize]byte) []byte {
	if slot != nil && len(p) == LineSize {
		return slot[:copy(slot[:], p)]
	}
	return bytes.Clone(p)
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
