package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"attache/internal/shard"
)

// The binary frame of the /v1 data endpoints, little-endian, in the
// snapv1 idiom (a payload is a u32 length and its bytes):
//
//	request  magic | u16 version | u32 count | count × (u8 kind | u64 addr [| payload])
//	answer   magic | u16 version | u32 count | u32 failed | count × (u8 status | u64 addr [| payload])
//
// Kinds are read (0) and write (1, with the line); statuses are data (0,
// with the line), ok (1) and error (2, with the message). /v1/read and
// /v1/write take a request of one op of their kind and answer one item,
// never an error: a failed op fails the call. The magic's first byte,
// 0x89, opens no JSON text, so IsFrame tells a frame from a JSON body by
// that byte alone.
const (
	frameMagic                        = "\x89ATF"
	frameVersion                      = 1
	opsHeader                         = len(frameMagic) + 2 + 4
	itemHeader                        = 1 + 8
	kindRead, kindWrite               = 0, 1
	statusData, statusOK, statusError = 0, 1, 2
)

// IsFrame reports whether body is meant as a frame.
func IsFrame(body []byte) bool { return len(body) > 0 && body[0] == frameMagic[0] }

// ContentType labels a body a frame or JSON. Nothing dispatches on it.
func ContentType(body []byte) string {
	if IsFrame(body) {
		return "application/x-attache-frame"
	}
	return "application/json"
}

// AppendFrameOps appends ops as a request frame, growing dst once.
func AppendFrameOps(dst []byte, ops []shard.Op) []byte {
	size := opsHeader + len(ops)*itemHeader
	for i := range ops {
		if ops[i].Write {
			size += 4 + len(ops[i].Data)
		}
	}
	dst = appendFrameHeader(slices.Grow(dst, size), len(ops))
	for i := range ops {
		if ops[i].Write {
			dst = appendPayload(appendItem(dst, kindWrite, ops[i].Addr), ops[i].Data)
		} else {
			dst = appendItem(dst, kindRead, ops[i].Addr)
		}
	}
	return dst
}

// AppendFrameBatch appends b as an answer frame. A result carries its
// Error if set, else OK, else Data.
func AppendFrameBatch(dst []byte, b Batch) []byte {
	dst = binary.LittleEndian.AppendUint32(appendFrameHeader(dst, len(b.Results)), uint32(b.Failed))
	for _, r := range b.Results {
		switch {
		case r.Error != "":
			dst = appendPayload(appendItem(dst, statusError, r.Addr), r.Error)
		case r.OK:
			dst = appendItem(dst, statusOK, r.Addr)
		default:
			dst = appendPayload(appendItem(dst, statusData, r.Addr), r.Data)
		}
	}
	return dst
}

func appendFrameHeader(dst []byte, count int) []byte {
	dst = binary.LittleEndian.AppendUint16(append(dst, frameMagic...), frameVersion)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

func appendItem(dst []byte, tag byte, addr uint64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, tag), addr)
}

func appendPayload[T string | []byte](dst []byte, p T) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(p))), p...)
}

// Frame reads a request frame (Ops, then Next) or an answer frame
// (Results, then NextResult). The header's count is vetted against the
// bytes that follow before any item is read, and each length against what
// the items still to come leave, so a frame decodes to no more than its
// length. It accepts exactly what the Append functions render.
type Frame struct {
	b    []byte // what is left to read, at least itemHeader bytes an item
	left int    // items still to come
	addr uint64
	err  error
}

// Ops points f at a request frame and returns the op count its header
// announces, also one the body cannot hold, so a cap can be checked first.
func (f *Frame) Ops(body []byte) (int, error) { return f.reset(body, opsHeader), f.err }

// Results points f at an answer frame and returns its result count and
// failed total.
func (f *Frame) Results(body []byte) (n, failed int, err error) {
	if n = f.reset(body, opsHeader+4); f.err == nil {
		failed = int(binary.LittleEndian.Uint32(body[opsHeader:]))
	}
	return n, failed, f.err
}

func (f *Frame) reset(body []byte, header int) int {
	*f = Frame{}
	switch {
	case len(body) < header:
		f.fail("torn header")
	case string(body[:len(frameMagic)]) != frameMagic:
		f.fail("bad magic")
	case binary.LittleEndian.Uint16(body[len(frameMagic):]) != frameVersion:
		f.fail("unsupported version %d (want %d)", binary.LittleEndian.Uint16(body[len(frameMagic):]), frameVersion)
	default:
		f.b, f.left = body[header:], int(binary.LittleEndian.Uint32(body[len(frameMagic)+2:]))
		if f.left > len(f.b)/itemHeader {
			f.fail("count %d cannot fit %d bytes", f.left, len(f.b))
		}
	}
	return f.left
}

// Err reports why iteration stopped early; nil after a clean end.
func (f *Frame) Err() error {
	if f.err == nil && f.left == 0 && len(f.b) > 0 {
		f.fail("%d bytes after the last item", len(f.b))
	}
	return f.err
}

// Next reads the next op of a request frame and reports whether there
// was one. op.Addr points into f and op.Data may alias slot; both are
// overwritten by the next call.
func (f *Frame) Next(op *Op, slot *[LineSize]byte) bool {
	kind, p, ok := f.item("kind", kindWrite, 1<<kindWrite)
	*op = Op{Op: "read", Addr: &f.addr}
	if kind == kindWrite {
		op.Op, op.Data = "write", own(p, slot)
	}
	return ok
}

// NextResult reads the next result of an answer frame and reports
// whether there was one. r.Data may alias slot.
func (f *Frame) NextResult(r *OpResult, slot *[LineSize]byte) bool {
	status, p, ok := f.item("status", statusError, 1<<statusData|1<<statusError)
	*r = OpResult{Addr: f.addr, OK: status == statusOK}
	switch {
	case status == statusData:
		r.Data = own(p, slot)
	case status == statusError && ok && len(p) == 0:
		_, _, ok = f.fail("item %#x: empty error", f.addr)
	case status == statusError:
		r.Error = string(p)
	}
	return ok
}

// item reads the next item: its tag (a kind or status, at most last)
// and, for the tags in the payloads mask, its payload in place.
func (f *Frame) item(what string, last, payloads byte) (tag byte, p []byte, ok bool) {
	if f.err != nil || f.left == 0 {
		return 0, nil, false
	}
	tag, f.addr = f.b[0], binary.LittleEndian.Uint64(f.b[1:])
	f.b, f.left = f.b[itemHeader:], f.left-1
	switch {
	case tag > last:
		return f.fail("item %#x: unknown %s %d", f.addr, what, tag)
	case payloads>>tag&1 == 0:
		return tag, nil, true
	case len(f.b) < 4 || int64(binary.LittleEndian.Uint32(f.b)) > int64(len(f.b)-4-f.left*itemHeader):
		return f.fail("item %#x: payload runs past the end", f.addr)
	}
	if n := binary.LittleEndian.Uint32(f.b); n > 0 {
		p = f.b[4 : 4+n] // an empty payload stays nil, as JSON's omitted "data"
	}
	f.b = f.b[4+len(p):]
	return tag, p, true
}

func (f *Frame) fail(format string, a ...any) (byte, []byte, bool) {
	f.err = fmt.Errorf(format, a...)
	return 0, nil, false
}
