package attache_test

import (
	"context"
	"encoding/binary"
	"fmt"

	"attache"
)

// ExampleMemory demonstrates the compressed-memory container: write a
// cacheline of array-like data, read it back, and inspect the traffic.
func ExampleMemory() {
	mem, err := attache.NewMemory()
	if err != nil {
		panic(err)
	}
	line := make([]byte, attache.LineSize)
	for w := 0; w < 8; w++ {
		binary.LittleEndian.PutUint64(line[w*8:], 0x1000_0000+uint64(w)*8)
	}
	if err := mem.Write(42, line); err != nil {
		panic(err)
	}
	back, err := mem.Read(42)
	if err != nil {
		panic(err)
	}
	snap := mem.StatsSnapshot()
	fmt.Println("round trip ok:", binary.LittleEndian.Uint64(back) == 0x1000_0000)
	fmt.Println("compressed lines:", snap.CompressedLines)
	fmt.Println("blocks written:", snap.BlocksWritten, "(an uncompressed system writes 2)")
	// Output:
	// round trip ok: true
	// compressed lines: 1
	// blocks written: 1 (an uncompressed system writes 2)
}

// ExampleNewTrace traces one in-process submission: the caller owns the
// trace, and any Engine records its pipeline spans into it — no
// observer involved.
func ExampleNewTrace() {
	eng, err := attache.NewEngine(attache.WithShards(2))
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	tr := attache.NewTrace(0xabc)
	ctx := attache.ContextWithTrace(context.Background(), tr)
	line := make([]byte, attache.LineSize)
	if _, err := eng.DoCtx(ctx, []attache.Op{{Write: true, Addr: 1, Data: line}, {Write: true, Addr: 2, Data: line}}); err != nil {
		panic(err)
	}
	stages := make(map[string]int) // ops covered per stage
	for _, ev := range tr.Timeline().Events {
		stages[ev.Stage] += ev.Ops
	}
	fmt.Println("trace", tr.ID(), "executed", stages["execute"], "ops, responded", stages["respond"])
	// Output:
	// trace 0000000000000abc executed 2 ops, responded 2
}

// ExampleFramework shows the controller-level flow: store produces the
// physical sub-rank image, load reconstructs the data and reports the
// access trace the paper's evaluation counts.
func ExampleFramework() {
	f, err := attache.New()
	if err != nil {
		panic(err)
	}
	zero := make([]byte, attache.LineSize) // an all-zero line: maximally compressible
	stored, tr, err := f.Store(7, zero)
	if err != nil {
		panic(err)
	}
	fmt.Println("stored compressed:", stored.Compressed)
	fmt.Println("sub-rank blocks touched:", tr.BlocksTouched)
	data, _, err := f.Load(7, stored)
	if err != nil {
		panic(err)
	}
	fmt.Println("loaded bytes equal:", string(data) == string(zero))
	// Output:
	// stored compressed: true
	// sub-rank blocks touched: 1
	// loaded bytes equal: true
}
