package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"attache/internal/shard"
)

// benchBatch is the batch the wire-batch workload moves — 64 ops, three
// reads in four — as values and as the bodies of both encodings.
type benchBatch struct {
	ops                 []shard.Op
	wireOps             []Op
	results             []OpResult
	req, resp           []byte // JSON
	frameReq, frameResp []byte
}

func benchBodies() benchBatch {
	var b benchBatch
	for i := range 64 {
		addr := uint64(i) * 1021
		line := bytes.Repeat([]byte{byte(i)}, LineSize)
		if i%4 == 0 {
			b.ops = append(b.ops, shard.Op{Write: true, Addr: addr, Data: line})
			b.wireOps = append(b.wireOps, Op{Op: "write", Addr: &addr, Data: line})
			b.results = append(b.results, OpResult{Addr: addr, OK: true})
		} else {
			b.ops = append(b.ops, shard.Op{Addr: addr})
			b.wireOps = append(b.wireOps, Op{Op: "read", Addr: &addr})
			b.results = append(b.results, OpResult{Addr: addr, Data: line})
		}
	}
	b.req, _ = json.Marshal(b.wireOps)
	b.resp, _ = json.Marshal(Batch{Results: b.results})
	b.frameReq = AppendFrameOps(nil, b.ops)
	b.frameResp = AppendFrameBatch(nil, Batch{Results: b.results})
	return b
}

// BenchmarkWireCodec is the codec rung of the ladder: the passes a 64-op
// batch makes through each wire encoding — the frame client.DoCtx speaks,
// and the encoding/json passes a JSON batch takes.
func BenchmarkWireCodec(b *testing.B) {
	bb := benchBodies()
	buf := make([]byte, 0, 2*len(bb.resp))
	var (
		f     Frame
		op    Op
		r     OpResult
		slots [65][LineSize]byte // one more: the call that finds the end takes a slot too
	)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"frame/encode-request", func() { buf = AppendFrameOps(buf[:0], bb.ops) }},
		{"frame/scan-request", func() {
			f.Ops(bb.frameReq)
			for i := 0; f.Next(&op, &slots[i]); i++ {
			}
		}},
		{"frame/encode-answer", func() { buf = AppendFrameBatch(buf[:0], Batch{Results: bb.results}) }},
		{"frame/scan-answer", func() {
			f.Results(bb.frameResp)
			for i := 0; f.NextResult(&r, &slots[i]); i++ {
			}
		}},
		{"json/encode-request", func() { buf, _ = json.Marshal(bb.wireOps) }},
		{"json/scan-request", func() {
			var v []Op
			json.Unmarshal(bb.req, &v)
		}},
		{"json/encode-answer", func() { buf, _ = json.Marshal(Batch{Results: bb.results}) }},
		{"json/scan-answer", func() {
			var v Batch
			json.Unmarshal(bb.resp, &v)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
			if f.Err() != nil {
				b.Fatal(f.Err())
			}
		})
	}
}
