package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// benchBodies builds the batch the wire-batch workload moves — 64 ops,
// three reads in four — as the request body, the answer, and the values
// behind both.
func benchBodies() (req, resp []byte, ops []Op, results []OpResult) {
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i) * 1021
		line := bytes.Repeat([]byte{byte(i)}, LineSize)
		if i%4 == 0 {
			ops = append(ops, Op{Op: "write", Addr: &addrs[i], Data: line})
			results = append(results, OpResult{Addr: addrs[i], OK: true})
		} else {
			ops = append(ops, Op{Op: "read", Addr: &addrs[i]})
			results = append(results, OpResult{Addr: addrs[i], Data: line})
		}
	}
	return appendOps(nil, ops), AppendBatch(nil, Batch{Results: results}), ops, results
}

// appendOps renders the array form of a /v1/batch body.
func appendOps(dst []byte, ops []Op) []byte {
	dst = append(dst, '[')
	for i, op := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendOp(dst, op)
	}
	return append(dst, ']')
}

// BenchmarkWireCodec is the codec rung of the ladder: the four passes a
// 64-op batch makes through the wire format, each against the
// encoding/json pass it replaced.
func BenchmarkWireCodec(b *testing.B) {
	req, resp, ops, results := benchBodies()
	buf := make([]byte, 0, 2*len(resp))
	var (
		s     Scanner
		op    Op
		r     OpResult
		slots [65][LineSize]byte // one more: the call that finds the end takes a slot too
	)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"encode-request", func() { buf = appendOps(buf[:0], ops) }},
		{"scan-request", func() {
			s.Reset(req)
			for i := 0; s.Next(&op, &slots[i]); i++ {
			}
		}},
		{"encode-answer", func() { buf = AppendBatch(buf[:0], Batch{Results: results}) }},
		{"scan-answer", func() {
			s.Reset(resp)
			for i := 0; s.NextResult(&r, &slots[i]); i++ {
			}
		}},
		{"json/encode-request", func() { buf, _ = json.Marshal(ops) }},
		{"json/scan-request", func() {
			var v []Op
			json.Unmarshal(req, &v)
		}},
		{"json/encode-answer", func() { buf, _ = json.Marshal(Batch{Results: results}) }},
		{"json/scan-answer", func() {
			var v Batch
			json.Unmarshal(resp, &v)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
			if s.Err() != nil {
				b.Fatal(s.Err())
			}
		})
	}
}
